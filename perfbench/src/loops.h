// The timed phase of each workload: load generators that drive requests
// through the deployment's PlanClient and record what comes back.
//
//   closed loop (cold_solve, warm_hit) — `window` requests stay in flight;
//     each completion frees a slot, which is refilled at once. Latency runs
//     from the send to the decoded response.
//   open loop (epoch_churn) — reads are due on a fixed schedule and ticks
//     on another, each stream in its own thread. Latency runs from when a
//     read was due, so a stall also charges the reads queued behind it.
//
// Every served plan is fingerprinted as it arrives. The first fingerprint
// of each (key, epoch) is kept for the oracle check; a later response for
// the same pair must repeat it byte for byte.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "env.h"
#include "trace.h"

namespace perfbench {

/// The timed phase is cut into kSlices equal time slices. Throughput and
/// latency quantiles are taken per slice and the median over slices is
/// reported, so a burst of host noise moves one slice, not the result. A
/// quantile q uses the slices holding at least 10 / (1 − q) samples when
/// half of them do, and all samples of the run otherwise.
inline constexpr std::size_t kSlices = 10;
/// Samples kept for whole-run quantiles; longer runs keep only their slices.
inline constexpr std::size_t kMaxKept = std::size_t{1} << 17;
/// cold_solve judges plan quality on its first ten blocks of cells.
inline constexpr std::size_t kQualitySample = 10 * kCells;

/// One answered request.
struct Sample {
  double latency_s = 0.0;
  std::uint32_t key = 0;  ///< index into RunLog::keys
  bool solved = false;    ///< solved on the server, not hit or joined
};

/// Requests answered with a plan within one time slice.
struct Slice {
  std::uint64_t planned = 0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  /// Completions per second between the slice's first and last completion.
  double rate = 0.0;
};

struct RunLog {
  /// The requests keyed by index; for cold_solve every request has its own.
  std::vector<sompi::PlanRequest> keys;
  /// Every request answered with a plan, in order, up to kMaxKept of them.
  std::vector<Sample> samples;
  std::vector<Slice> slices;
  double slice_s = 0.0;
  std::uint64_t planned = 0;  ///< requests answered with a plan
  /// Open loop only: send time minus due time, per read.
  std::vector<double> lag_s;

  std::uint64_t attempted = 0;
  std::uint64_t sheds = 0;        ///< kShed responses
  std::uint64_t wire_errors = 0;  ///< error completions
  std::uint64_t missing = 0;      ///< no completion within the drain timeout
  std::uint64_t mismatched = 0;   ///< fingerprint differs within one (key, epoch)
  std::uint64_t inflight_at_end = 0;
  double phase_s = 0.0;  ///< first send to last completion

  /// (key index, epoch) → fingerprint of the first plan served for it.
  std::map<std::pair<std::size_t, std::uint64_t>, std::string> served;
  /// The plan-quality sample by key index: cold_solve's first
  /// kQualitySample keys; epoch_churn's working set served once more after
  /// the schedule, on the run's final market (fixed by the seeded ticks).
  std::map<std::size_t, std::shared_ptr<const sompi::Plan>> quality_sample;

  /// Every epoch the run saw → its frozen market (one, but for epoch_churn).
  std::map<std::uint64_t, std::shared_ptr<const sompi::Market>> markets;
};

struct Quantile {
  double seconds = 0.0;
  std::size_t slices = 0;     ///< slices the median was taken over; 0 = whole run
  std::uint64_t samples = 0;  ///< fewest samples behind one nearest-rank value
};

/// The run's latency at quantile 0.5 or 0.99, by the kSlices rule.
Quantile latency_quantile(const RunLog& log, double q);
/// Median over slices of requests answered with a plan per second.
double throughput(const RunLog& log);

/// Runs `workload`'s timed phase for `seconds` on `deployment`. With a
/// tracer, every request, client call and feed offer is also a span.
RunLog run_workload(Workload workload, Deployment& deployment, std::uint64_t seed,
                    double seconds, Tracer* tracer);

/// Steps the epoch_churn feed is offered in a run of `seconds`.
std::uint64_t churn_feed_steps(double seconds);

}  // namespace perfbench
