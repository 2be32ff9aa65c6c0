#include "loops.h"

#include <sys/prctl.h>

#include <cmath>
#include <exception>
#include <functional>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/rng.h"

namespace perfbench {

using namespace sompi;

namespace {

/// A loop gives up on its outstanding requests after this long without a
/// completion; whatever is left counts as missing.
constexpr double kDrainTimeoutS = 60.0;

Clock::duration to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
}

struct InFlight {
  std::size_t key = 0;
  Clock::time_point due;
};

/// How a loop waits for completions: it spins (yielding) for kSpinS after
/// the last progress, which keeps a pipelined window full, then polls every
/// ~10 µs so a loop waiting on long solves leaves the CPUs to the server.
/// The poll relies on the thread's timer slack being cut to 1 ns.
constexpr double kSpinS = 200e-6;

void tighten_timer_slack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

void wait_for_completions(Clock::time_point last_progress) {
  if (seconds_since(last_progress) < kSpinS) {
    std::this_thread::yield();
  } else {
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  }
}

/// Books completions into the run log: latency, outcome, and the per
/// (key, epoch) fingerprint check.
class Recorder {
 public:
  /// The timed phase starts at `start` and lasts `seconds`.
  Recorder(RunLog* log, Tracer* tracer, std::size_t sample_keys, Clock::time_point start,
           double seconds)
      : log_(log), tracer_(tracer), sample_keys_(sample_keys), start_(start) {
    log_->slice_s = seconds / static_cast<double>(kSlices);
  }

  /// Closes the slices the timed phase has not closed yet.
  ~Recorder() {
    while (log_->slices.size() < kSlices) close_slice();
  }
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Books `done` against its in-flight entry; a served plan is queued
  /// for verify().
  void book(const InFlight& sent, net::ClientCompletion& done, Clock::time_point now) {
    if (tracer_ != nullptr) tracer_->record("request", sent.due, now, kNoParent, done.request_id);
    if (!done.error.empty()) {
      ++log_->wire_errors;
      return;
    }
    if (done.response.outcome == PlanOutcome::kShed || done.response.plan == nullptr) {
      ++log_->sheds;
      return;
    }
    const Sample sample{seconds_between(sent.due, now), static_cast<std::uint32_t>(sent.key),
                        done.response.outcome == PlanOutcome::kSolved};
    const auto slice = static_cast<std::size_t>(seconds_between(start_, now) / log_->slice_s);
    while (log_->slices.size() < std::min(slice, kSlices)) close_slice();
    if (slice < kSlices) {
      if (slice_latency_.empty()) slice_first_ = now;
      slice_last_ = now;
      slice_latency_.push_back(sample.latency_s);
    }
    if (log_->samples.size() < kMaxKept) log_->samples.push_back(sample);
    ++log_->planned;
    pending_.emplace_back(sent.key, std::move(done.response));
  }

  /// Fingerprints every plan booked since the last call.
  void verify() {
    if (pending_.empty()) return;
    const ScopedSpan span(tracer_, "bench.verify");
    for (auto& [key, response] : pending_) {
      std::string fingerprint = plan_fingerprint(*response.plan);
      const auto [it, fresh] =
          log_->served.try_emplace({key, response.epoch}, std::move(fingerprint));
      if (!fresh && it->second != fingerprint) ++log_->mismatched;
      if (key < sample_keys_) log_->quality_sample.try_emplace(key, response.plan);
    }
    pending_.clear();
  }

 private:
  void close_slice() {
    Slice slice;
    slice.planned = slice_latency_.size();
    slice.p50_s = percentile(slice_latency_, 0.50);
    slice.p99_s = percentile(slice_latency_, 0.99);
    if (slice.planned >= 2)
      slice.rate =
          static_cast<double>(slice.planned - 1) / seconds_between(slice_first_, slice_last_);
    log_->slices.push_back(slice);
    slice_latency_.clear();
  }

  RunLog* log_;
  Tracer* tracer_;
  std::size_t sample_keys_;
  Clock::time_point start_;
  std::vector<double> slice_latency_;
  Clock::time_point slice_first_;
  Clock::time_point slice_last_;
  std::vector<std::pair<std::size_t, PlanResponse>> pending_;
};

/// Sends `keys` as one batch; every request is due at `due[i]`.
void send_batch(net::PlanClient& client, RunLog& log, Tracer* tracer,
                const std::vector<std::size_t>& keys, const std::vector<Clock::time_point>& due,
                std::unordered_map<std::uint64_t, InFlight>& in_flight) {
  std::vector<PlanRequest> batch;
  batch.reserve(keys.size());
  for (const std::size_t key : keys) batch.push_back(log.keys[key]);
  std::vector<std::uint64_t> ids;
  {
    const ScopedSpan span(tracer, "client.submit_batch");
    ids = client.submit_batch(batch);
  }
  for (std::size_t i = 0; i < ids.size(); ++i) in_flight[ids[i]] = InFlight{keys[i], due[i]};
  log.attempted += ids.size();
}

/// Closed loop: keeps `window` requests in flight until `seconds` pass,
/// then drains.
void closed_loop(net::PlanClient& client, std::size_t window, double seconds,
                 const std::function<std::size_t()>& next_key, std::size_t sample_keys,
                 RunLog& log, Tracer* tracer) {
  tighten_timer_slack();
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + to_duration(seconds);
  Recorder recorder(&log, tracer, sample_keys, start, seconds);
  std::unordered_map<std::uint64_t, InFlight> in_flight;
  std::vector<std::size_t> keys;
  std::vector<Clock::time_point> due;
  const auto refill = [&](std::size_t n) {
    keys.clear();
    for (std::size_t i = 0; i < n; ++i) keys.push_back(next_key());
    due.assign(n, Clock::now());
    send_batch(client, log, tracer, keys, due, in_flight);
  };

  Clock::time_point last = start;
  refill(window);
  while (!in_flight.empty()) {
    std::vector<net::ClientCompletion> done = client.harvest();
    const Clock::time_point now = Clock::now();
    if (done.empty()) {
      if (seconds_between(last, now) > kDrainTimeoutS) break;
      wait_for_completions(last);
      continue;
    }
    last = now;
    std::size_t freed = 0;
    for (net::ClientCompletion& completion : done) {
      const auto it = in_flight.find(completion.request_id);
      if (it == in_flight.end()) continue;
      recorder.book(it->second, completion, now);
      in_flight.erase(it);
      ++freed;
    }
    if (now < stop && freed > 0) refill(freed);
    recorder.verify();
  }
  log.missing = in_flight.size();
  log.phase_s = seconds_between(start, last);
}

/// Offers the hot groups' ticks on schedule until `stop`; records every
/// epoch it publishes with its frozen market.
struct Writer {
  std::map<std::uint64_t, std::shared_ptr<const Market>> markets;
  std::exception_ptr failure;

  void run(Deployment& d, const std::vector<feed::Tick>& ticks, Clock::time_point start,
           Clock::time_point stop, Tracer* tracer) {
    std::uint64_t epoch = d.tier->fanout().epoch();
    for (const feed::Tick& tick : ticks) {
      const Clock::time_point due =
          start + to_duration(static_cast<double>(tick.step - d.feed_base_step) /
                              kChurnStepsPerSecond);
      if (due >= stop) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point t0 = Clock::now();
      d.feed->offer(tick);
      const Clock::time_point t1 = Clock::now();
      const std::uint64_t now_epoch = d.tier->fanout().epoch();
      const bool published = now_epoch != epoch;
      if (tracer != nullptr) tracer->record(published ? "churn.publish" : "churn.offer", t0, t1);
      if (published) {
        epoch = now_epoch;
        markets[epoch] = d.tier->board(0).snapshot().market;
      }
    }
  }
};

/// The read half of the open loop: reads over the working set fall due at
/// kChurnReadsPerSecond from `start` until `stop`, then the loop drains.
/// Reads visit the working set in cycles, each a seeded permutation of all
/// keys, so every key is read equally often whatever the seed: with only 16
/// keys of very different re-plan costs, uneven draws would move the p50.
void read_schedule(Deployment& d, std::uint64_t seed, Clock::time_point start,
                   Clock::time_point stop, RunLog& log, Tracer* tracer) {
  tighten_timer_slack();
  Rng order(derive_seed(seed, kOrderStream));
  std::vector<std::size_t> cycle(log.keys.size());
  std::size_t cycle_pos = cycle.size();
  const auto next_key = [&] {
    if (cycle_pos == cycle.size()) {
      std::iota(cycle.begin(), cycle.end(), std::size_t{0});
      for (std::size_t i = cycle.size() - 1; i > 0; --i)
        std::swap(cycle[i], cycle[order.uniform_index(i + 1)]);
      cycle_pos = 0;
    }
    return cycle[cycle_pos++];
  };
  Recorder recorder(&log, tracer, 0, start, seconds_between(start, stop));
  std::unordered_map<std::uint64_t, InFlight> in_flight;
  const auto due_of = [&](std::uint64_t i) {
    return start + to_duration(static_cast<double>(i) / kChurnReadsPerSecond);
  };
  std::uint64_t next = 0;
  std::vector<std::size_t> keys;
  std::vector<Clock::time_point> due;
  bool schedule_open = true;
  Clock::time_point last = start;
  Clock::time_point progress = start;
  for (;;) {
    Clock::time_point now = Clock::now();
    if (schedule_open && now >= stop) {
      schedule_open = false;
      log.inflight_at_end = in_flight.size();
    }
    if (schedule_open) {
      keys.clear();
      due.clear();
      for (; due_of(next) <= now; ++next) {
        keys.push_back(next_key());
        due.push_back(due_of(next));
      }
      if (!keys.empty()) {
        const Clock::time_point sent = Clock::now();
        for (const Clock::time_point t : due) log.lag_s.push_back(seconds_between(t, sent));
        send_batch(*d.client, log, tracer, keys, due, in_flight);
        progress = sent;
      }
    }
    std::vector<net::ClientCompletion> done = d.client->harvest();
    now = Clock::now();
    for (net::ClientCompletion& completion : done) {
      const auto it = in_flight.find(completion.request_id);
      if (it == in_flight.end()) continue;
      recorder.book(it->second, completion, now);
      in_flight.erase(it);
      last = progress = now;
    }
    recorder.verify();
    if (!schedule_open && in_flight.empty()) break;
    if (!done.empty()) continue;
    if (!schedule_open && seconds_between(last, now) > kDrainTimeoutS) break;
    // Wait for answers while some are due; otherwise sleep until the next read.
    if (!in_flight.empty()) {
      wait_for_completions(progress);
    } else if (schedule_open) {
      std::this_thread::sleep_until(std::min(due_of(next), stop));
    }
  }
  log.missing = in_flight.size();
  log.phase_s = seconds_between(start, std::max(last, stop));
}

/// Open loop: the read schedule on this thread, hot-group ticks on another.
/// Afterwards the working set is served once more, on the final market, as
/// the run's plan-quality sample.
void open_loop(Deployment& d, std::uint64_t seed, double seconds, RunLog& log,
               Tracer* tracer) {
  const std::vector<feed::Tick> ticks =
      hot_ticks(d.world->catalog, d.feed_base_step, churn_feed_steps(seconds),
                derive_seed(seed, kTickStream));
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + to_duration(seconds);
  Writer writer;
  std::thread writer_thread([&] {
    try {
      writer.run(d, ticks, start, stop, tracer);
    } catch (...) {
      writer.failure = std::current_exception();
    }
  });
  try {
    read_schedule(d, seed, start, stop, log, tracer);
  } catch (...) {
    writer_thread.join();
    throw;
  }
  writer_thread.join();
  if (writer.failure) std::rethrow_exception(writer.failure);
  log.markets.merge(writer.markets);

  const std::vector<PlanResponse> closing = d.serve_all(log.keys, log.keys.size());
  for (std::size_t key = 0; key < closing.size(); ++key) {
    const std::string fingerprint = plan_fingerprint(*closing[key].plan);
    const auto [it, fresh] = log.served.try_emplace({key, closing[key].epoch}, fingerprint);
    if (!fresh && it->second != fingerprint) ++log.mismatched;
    log.quality_sample[key] = closing[key].plan;
  }
}

}  // namespace

Quantile latency_quantile(const RunLog& log, double q) {
  const double need = 10.0 / (1.0 - q);
  std::vector<double> per_slice;
  std::uint64_t fewest = log.planned;
  for (const Slice& slice : log.slices) {
    if (static_cast<double>(slice.planned) < need) continue;
    per_slice.push_back(q < 0.9 ? slice.p50_s : slice.p99_s);
    fewest = std::min(fewest, slice.planned);
  }
  if (2 * per_slice.size() >= kSlices) return {median(per_slice), per_slice.size(), fewest};
  std::vector<double> latency;
  for (const Sample& sample : log.samples) latency.push_back(sample.latency_s);
  const std::uint64_t samples = latency.size();
  return {percentile(std::move(latency), q), 0, samples};
}

double throughput(const RunLog& log) {
  std::vector<double> per_slice;
  for (const Slice& slice : log.slices) per_slice.push_back(slice.rate);
  return median(per_slice);
}

std::uint64_t churn_feed_steps(double seconds) {
  return static_cast<std::uint64_t>(std::ceil(seconds * kChurnStepsPerSecond)) + 1;
}

RunLog run_workload(Workload workload, Deployment& d, std::uint64_t seed, double seconds,
                    Tracer* tracer) {
  RunLog log;
  const MarketSnapshot snapshot = d.tier->board(0).snapshot();
  log.markets[snapshot.epoch] = snapshot.market;
  switch (workload) {
    case Workload::kColdSolve: {
      RequestFactory factory(d.world.get(), derive_seed(seed, kColdStream));
      const auto next_key = [&] {
        log.keys.push_back(factory.next_distinct());
        return log.keys.size() - 1;
      };
      closed_loop(*d.client, kColdOutstanding, seconds, next_key, kQualitySample, log, tracer);
      break;
    }
    case Workload::kWarmHit: {
      log.keys = d.keys;
      Rng order(derive_seed(seed, kOrderStream));
      const auto next_key = [&] { return order.uniform_index(log.keys.size()); };
      closed_loop(*d.client, kWarmWindow, seconds, next_key, 0, log, tracer);
      break;
    }
    case Workload::kEpochChurn:
      log.keys = d.keys;
      open_loop(d, seed, seconds, log, tracer);
      break;
  }
  return log;
}

}  // namespace perfbench
