// The paper's failure-rate function f_i(P_i, t_i) and expected spot price
// S_i(P_i), estimated from spot-price history (§4.4 "Obtaining Failure Rate
// Function").
//
// For a bid P, the group's first-passage time is the first step at which the
// spot price exceeds P. Following the paper, we estimate its distribution in
// a histogram-based way: start from G random points in the recent history,
// record when the price first exceeds P, and normalize the counts. One pass
// of the running maximum per sampled start point yields the first-passage
// time for EVERY candidate bid simultaneously. A run that reaches the end of
// the history wraps around to its start, so a start point near the end still
// scans a full horizon.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/spot_trace.h"

namespace sompi {

/// Estimation knobs.
struct FailureEstimationConfig {
  /// Number of sampled start points G (paper: "G is sufficiently large").
  std::size_t samples = 2000;
  /// Steps of look-ahead; must cover the longest group wall duration.
  std::size_t horizon_steps = 400;
  /// Deterministic seed for the start-point sampler.
  std::uint64_t seed = 0x50C1A1;
};

class FailureModel {
 public:
  /// Builds the model over the given candidate bid levels (ascending, all
  /// positive) from the price history. The trace must be non-empty.
  FailureModel(const SpotTrace& history, std::vector<double> bids,
               const FailureEstimationConfig& config);

  /// Candidate bid levels, ascending.
  const std::vector<double>& bids() const { return bids_; }
  std::size_t bid_count() const { return bids_.size(); }
  double bid(std::size_t b) const { return bids_.at(b); }

  std::size_t horizon() const { return horizon_; }

  /// P[first-passage >= t]: the group survives (at least) the first t steps.
  /// survival(b, 0) == 1. t is clamped to the horizon.
  double survival(std::size_t b, std::size_t t) const;

  /// P[first-passage >= x] for fractional x (first-passage is step-valued).
  double survival_at(std::size_t b, double x) const;

  /// P[first-passage == t]: the paper's f_i(P, t) for a failure at step t.
  double pmf(std::size_t b, std::size_t t) const;

  /// E[min(first-passage, w)]: expected lifetime of a group whose complete
  /// run lasts w wall steps. Beyond the horizon the group is assumed alive.
  double expected_lifetime(std::size_t b, double w) const;

  /// Mean time before failure, conditioned on failing within the horizon;
  /// horizon when the group never failed in any sample (drives Young/Daly).
  double mtbf(std::size_t b) const;

  /// The paper's expected spot price S_i(P): mean of historical prices <= P.
  double expected_price(std::size_t b) const { return expected_price_[b]; }

  /// Highest historical price H_i (upper end of the bid range).
  double max_price() const { return max_price_; }

 private:
  std::vector<double> bids_;
  std::size_t horizon_;
  // survival_[b * (horizon_+1) + t] = P[fp >= t]
  std::vector<double> survival_;
  std::vector<double> expected_price_;
  double max_price_ = 0.0;
};

/// The paper's logarithmic bid grid over (0, H]: the search points are
/// H/2^l for l = levels-1 .. 0, ascending — dense near zero where the
/// failure-rate function moves fastest, sparse near H where it is flat
/// (§4.2.2 "logarithmic searching method").
std::vector<double> logarithmic_bid_grid(double max_price, std::size_t levels);

/// Uniform grid of `points` bids over (0, H] — the ablation comparator.
std::vector<double> uniform_bid_grid(double max_price, std::size_t points);

}  // namespace sompi
