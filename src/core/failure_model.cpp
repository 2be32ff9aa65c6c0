#include "core/failure_model.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace sompi {

FailureModel::FailureModel(const SpotTrace& history, std::vector<double> bids,
                           const FailureEstimationConfig& config)
    : bids_(std::move(bids)), horizon_(config.horizon_steps) {
  SOMPI_REQUIRE(!history.empty());
  SOMPI_REQUIRE(!bids_.empty());
  SOMPI_REQUIRE(std::is_sorted(bids_.begin(), bids_.end()));
  SOMPI_REQUIRE_MSG(bids_.front() > 0.0, "bids must be positive");
  SOMPI_REQUIRE(config.samples > 0);
  SOMPI_REQUIRE(horizon_ > 0);

  max_price_ = history.max_price();

  expected_price_.reserve(bids_.size());
  for (double b : bids_) expected_price_.push_back(history.mean_below(b));

  // failures[b][t]: samples whose first passage for bid b lands exactly at t.
  const std::size_t width = horizon_ + 1;
  std::vector<std::size_t> failures(bids_.size() * width, 0);
  std::vector<std::size_t> never(bids_.size(), 0);  // alive through the horizon

  Rng rng(config.seed);
  const std::size_t n = history.steps();
  for (std::size_t s = 0; s < config.samples; ++s) {
    const std::size_t start = rng.uniform_index(n);
    // One running-max pass kills bids in ascending order: once the running
    // max exceeds bids_[next], that bid's first passage is the current step.
    std::size_t next = 0;  // lowest still-alive bid index
    double run_max = 0.0;
    for (std::size_t t = 0; t <= horizon_ && next < bids_.size(); ++t) {
      std::size_t idx = start + t;
      if (idx >= n) idx %= n;  // wrap around the end of the history
      run_max = std::max(run_max, history.price(idx));
      while (next < bids_.size() && bids_[next] < run_max) {
        failures[next * width + t] += 1;
        ++next;
      }
    }
    for (std::size_t b = next; b < bids_.size(); ++b) ++never[b];
  }

  // Convert counts to survival curves: survival(t) = P[fp >= t].
  survival_.assign(bids_.size() * width, 0.0);
  const auto g = static_cast<double>(config.samples);
  for (std::size_t b = 0; b < bids_.size(); ++b) {
    double alive = g;
    for (std::size_t t = 0; t < width; ++t) {
      survival_[b * width + t] = alive / g;
      alive -= static_cast<double>(failures[b * width + t]);
    }
    SOMPI_ASSERT(alive >= -1e-9);
    SOMPI_ASSERT(std::abs(alive - static_cast<double>(never[b])) < 0.5);
  }
}

double FailureModel::survival(std::size_t b, std::size_t t) const {
  SOMPI_REQUIRE(b < bids_.size());
  t = std::min(t, horizon_);
  return survival_[b * (horizon_ + 1) + t];
}

double FailureModel::survival_at(std::size_t b, double x) const {
  if (x <= 0.0) return 1.0;
  return survival(b, static_cast<std::size_t>(std::ceil(x)));
}

double FailureModel::pmf(std::size_t b, std::size_t t) const {
  SOMPI_REQUIRE(t <= horizon_);
  const double next = t == horizon_ ? 0.0 : survival(b, t + 1);
  return std::max(0.0, survival(b, t) - next);
}

double FailureModel::expected_lifetime(std::size_t b, double w) const {
  SOMPI_REQUIRE(w >= 0.0);
  // E[min(fp, w)] = sum_{t=1..floor(w)} P[fp >= t] + frac(w) * P[fp >= ceil(w)]
  // (first passage is integer-valued).
  const double capped = std::min(w, static_cast<double>(horizon_));
  const auto whole = static_cast<std::size_t>(std::floor(capped));
  double e = 0.0;
  for (std::size_t t = 1; t <= whole; ++t) e += survival(b, t);
  const double frac = capped - static_cast<double>(whole);
  if (frac > 0.0) e += frac * survival(b, whole + 1);
  return e;
}

double FailureModel::mtbf(std::size_t b) const {
  const double p_never = survival(b, horizon_);
  if (p_never >= 1.0 - 1e-12) return static_cast<double>(horizon_);
  double e = 0.0;
  for (std::size_t t = 0; t < horizon_; ++t) e += pmf(b, t) * static_cast<double>(t);
  // Condition on failing within the horizon; censored mass sits at the edge.
  e += p_never * static_cast<double>(horizon_);
  return e;
}

std::vector<double> logarithmic_bid_grid(double max_price, std::size_t levels) {
  SOMPI_REQUIRE(max_price > 0.0);
  SOMPI_REQUIRE(levels >= 1);
  std::vector<double> grid;
  grid.reserve(levels);
  for (std::size_t l = levels; l-- > 0;) grid.push_back(max_price / std::pow(2.0, l));
  return grid;  // ascending: H/2^(levels-1), ..., H/2, H
}

std::vector<double> uniform_bid_grid(double max_price, std::size_t points) {
  SOMPI_REQUIRE(max_price > 0.0);
  SOMPI_REQUIRE(points >= 1);
  std::vector<double> grid;
  grid.reserve(points);
  for (std::size_t j = 1; j <= points; ++j)
    grid.push_back(max_price * static_cast<double>(j) / static_cast<double>(points));
  return grid;
}

}  // namespace sompi
