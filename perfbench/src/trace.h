// In-memory spans for the traced run.
//
// A span is one timed call the benchmark makes into a layer: a name, start
// and end on the steady clock, the span that caused it, and the request it
// belongs to. Spans stay in memory and are written out once, when the run
// ends. A span's self time is its duration minus the part of its interval
// that its child spans cover.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

inline constexpr std::uint32_t kNoParent = 0xFFFFFFFFu;

struct Span {
  const char* name = "";
  double start_s = 0.0;  ///< seconds since the tracer's origin
  double end_s = 0.0;
  std::uint32_t parent = kNoParent;
  std::uint64_t request = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span; `name` must be a string literal (it is stored as is).
  std::uint32_t begin(const char* name, std::uint32_t parent = kNoParent,
                      std::uint64_t request = 0);
  void end(std::uint32_t id);
  /// Records an already-measured interval.
  std::uint32_t record(const char* name, Clock::time_point start, Clock::time_point end,
                       std::uint32_t parent = kNoParent, std::uint64_t request = 0);

  /// Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Self times (seconds) of every span with this name.
  std::vector<double> self_times(const std::string& name) const;

  std::size_t size() const;
  /// Writes the first `per_name` spans of each name as one JSON object per
  /// line, then one line counting the spans left out. Returns false on an
  /// I/O error.
  bool write(const std::string& path, std::size_t per_name) const;

 private:
  double offset(Clock::time_point t) const { return seconds_between(origin_, t); }

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint32_t parent = kNoParent,
             std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent, request) : kNoParent) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
