#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

std::uint32_t Tracer::begin(const char* name, std::uint32_t parent, std::uint64_t request) {
  const double now = offset(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

void Tracer::end(std::uint32_t id) {
  const double now = offset(Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end_s = now;
}

std::uint32_t Tracer::record(const char* name, Clock::time_point start, Clock::time_point end,
                             std::uint32_t parent, std::uint64_t request) {
  const Span span{name, offset(start), offset(end), parent, request};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& span : spans_)
    if (name == span.name) out.push_back(span.end_s - span.start_s);
  return out;
}

std::vector<double> Tracer::self_times(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_)
    if (span.parent != kNoParent) children[span.parent].emplace_back(span.start_s, span.end_s);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (name != span.name) continue;
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = span.start_s;
    for (const auto& [from, to] : kids) {
      const double lo = std::max(from, reach);
      const double hi = std::min(to, span.end_s);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, hi);
    }
    out.push_back(span.end_s - span.start_s - covered);
  }
  return out;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

bool Tracer::write(const std::string& path, std::size_t per_name) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, std::size_t> written;
  std::size_t omitted = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (++written[span.name] > per_name) {
      ++omitted;
      continue;
    }
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %lld, \"request\": %llu}\n",
                 i, span.name, span.start_s, span.end_s,
                 span.parent == kNoParent ? -1LL : static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  std::fprintf(out, "{\"omitted_spans\": %zu}\n", omitted);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
