#include "core/failure_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "trace/generator.h"

namespace sompi {
namespace {

FailureEstimationConfig config(std::size_t samples = 4000, std::size_t horizon = 50) {
  FailureEstimationConfig c;
  c.samples = samples;
  c.horizon_steps = horizon;
  return c;
}

TEST(FailureModel, ConstantPriceNeverFailsAboveIt) {
  const SpotTrace trace(0.25, std::vector<double>(100, 0.05));
  const FailureModel fm(trace, {0.04, 0.06}, config());
  // Bid below the price: instant out-of-bid, always.
  EXPECT_DOUBLE_EQ(fm.survival(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(fm.pmf(0, 0), 1.0);
  // Bid above the price: immortal.
  EXPECT_DOUBLE_EQ(fm.survival(1, 50), 1.0);
  EXPECT_DOUBLE_EQ(fm.expected_lifetime(1, 20.0), 20.0);
}

TEST(FailureModel, SurvivalMonotoneInTimeAndBid) {
  Rng rng(3);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.05), 4000, 0.25, rng);
  const FailureModel fm(trace, logarithmic_bid_grid(trace.max_price(), 7), config());
  for (std::size_t b = 0; b < fm.bid_count(); ++b) {
    EXPECT_DOUBLE_EQ(fm.survival(b, 0), 1.0);
    for (std::size_t t = 1; t <= fm.horizon(); ++t)
      EXPECT_LE(fm.survival(b, t), fm.survival(b, t - 1) + 1e-12);
  }
  for (std::size_t b = 1; b < fm.bid_count(); ++b)
    for (std::size_t t = 0; t <= fm.horizon(); t += 7)
      EXPECT_GE(fm.survival(b, t), fm.survival(b - 1, t) - 1e-12) << "bid " << b << " t " << t;
}

TEST(FailureModel, PmfSumsToOne) {
  Rng rng(4);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kModerate, 0.05), 4000, 0.25, rng);
  const FailureModel fm(trace, logarithmic_bid_grid(trace.max_price(), 6), config());
  for (std::size_t b = 0; b < fm.bid_count(); ++b) {
    double total = 0.0;
    for (std::size_t t = 0; t <= fm.horizon(); ++t) total += fm.pmf(b, t);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(FailureModel, KnownPeriodicTrace) {
  // Price pattern: 9 low steps then 1 spike, repeating. With a bid between,
  // a run starting at a uniformly random offset first-passes at the next
  // spike: P[fp = k] = 1/10 for k in 0..9.
  std::vector<double> prices;
  for (int rep = 0; rep < 50; ++rep) {
    for (int i = 0; i < 9; ++i) prices.push_back(0.05);
    prices.push_back(1.0);
  }
  const SpotTrace trace(0.25, std::move(prices));
  const FailureModel fm(trace, {0.5}, config(20000, 30));
  for (std::size_t k = 0; k < 10; ++k) EXPECT_NEAR(fm.pmf(0, k), 0.1, 0.02) << k;
  EXPECT_NEAR(fm.survival(0, 10), 0.0, 1e-12);
  // MTBF of a uniform{0..9} failure time is 4.5.
  EXPECT_NEAR(fm.mtbf(0), 4.5, 0.15);
  // E[min(fp, 5)] = (0+1+2+3+4)/10 + 5·(5/10) = 3.5.
  EXPECT_NEAR(fm.expected_lifetime(0, 5.0), 3.5, 0.1);
}

TEST(FailureModel, ExpectedPriceIsMeanBelowBid) {
  const SpotTrace trace(0.25, {0.02, 0.04, 0.06, 0.08, 1.0});
  const FailureModel fm(trace, {0.05, 2.0}, config(100, 5));
  EXPECT_DOUBLE_EQ(fm.expected_price(0), 0.03);
  EXPECT_DOUBLE_EQ(fm.expected_price(1), trace.mean_below(2.0));
  EXPECT_DOUBLE_EQ(fm.max_price(), 1.0);
}

TEST(FailureModel, FractionalLifetimeInterpolates) {
  const SpotTrace trace(0.25, std::vector<double>(100, 0.05));
  const FailureModel fm(trace, {0.06}, config(100, 50));
  EXPECT_DOUBLE_EQ(fm.expected_lifetime(0, 3.5), 3.5);
  EXPECT_DOUBLE_EQ(fm.survival_at(0, 2.3), 1.0);
}

TEST(FailureModel, EstimationIsDeterministicForSeed) {
  Rng rng(5);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.03), 2000, 0.25, rng);
  const FailureModel a(trace, {0.05, 0.1}, config());
  const FailureModel b(trace, {0.05, 0.1}, config());
  for (std::size_t t = 0; t <= a.horizon(); ++t) {
    EXPECT_DOUBLE_EQ(a.survival(0, t), b.survival(0, t));
    EXPECT_DOUBLE_EQ(a.survival(1, t), b.survival(1, t));
  }
}

TEST(FailureModel, ShorterHorizonIsABitExactPrefixOfALongerOne) {
  // A first-passage count at step t never depends on how far past t the scan
  // runs, so a model fitted to horizon H must agree bit for bit with one fitted
  // to H' > H (same trace, bids, samples and seed) on every t <= H. The second
  // trace exceeds the low bid only at step 0, so every failure after step 0
  // comes from a run that wrapped past the end of the history.
  Rng rng(11);
  const SpotTrace spiky =
      generate_trace(regime_params_for(VolatilityClass::kSpiky, 0.05), 300, 0.25, rng);
  std::vector<double> wrap_prices(40, 0.05);
  wrap_prices[0] = 1.0;
  const SpotTrace wrap_only(0.25, wrap_prices);

  const struct {
    const SpotTrace* trace;
    std::vector<double> bids;
    std::size_t h, h_long;
  } cases[] = {
      {&spiky, logarithmic_bid_grid(spiky.max_price(), 7), 120, 400},
      {&wrap_only, {0.1, 2.0}, 30, 100},
  };
  for (const auto& c : cases) {
    const FailureModel short_fm(*c.trace, c.bids, config(2000, c.h));
    const FailureModel long_fm(*c.trace, c.bids, config(2000, c.h_long));
    for (std::size_t b = 0; b < c.bids.size(); ++b) {
      EXPECT_EQ(short_fm.expected_price(b), long_fm.expected_price(b)) << "bid " << b;
      for (std::size_t t = 0; t <= c.h; ++t)
        EXPECT_EQ(short_fm.survival(b, t), long_fm.survival(b, t)) << "bid " << b << " t " << t;
    }
  }

  const FailureModel wrapped(wrap_only, {0.1, 2.0}, config(2000, 30));
  EXPECT_LT(wrapped.survival(0, 30), wrapped.survival(0, 2));  // wrapped runs failed
  EXPECT_EQ(FailureModel(wrap_only, {0.1, 2.0}, config(2000, 100)).survival(0, 40), 0.0);
}

TEST(FailureModel, TrainTestStability) {
  // §5.4.1: the failure-rate function estimated on 3 days predicts the 4th
  // day well. Train on the first 3/4, test on the last 1/4 of one long
  // stationary trace and compare survival curves.
  Rng rng(6);
  const SpotTrace trace =
      generate_trace(regime_params_for(VolatilityClass::kModerate, 0.05), 4 * 96 * 4, 0.25, rng);
  const SpotTrace train = trace.window(0, 3 * 96 * 4);
  const SpotTrace test = trace.window(3 * 96 * 4, 96 * 4);
  const auto bids = logarithmic_bid_grid(train.max_price(), 5);
  const FailureModel fm_train(train, bids, config(6000, 40));
  const FailureModel fm_test(test, bids, config(6000, 40));
  double max_diff = 0.0;
  for (std::size_t b = 0; b < bids.size(); ++b)
    for (std::size_t t = 0; t <= 40; t += 5)
      max_diff = std::max(max_diff, std::abs(fm_train.survival(b, t) - fm_test.survival(b, t)));
  EXPECT_LT(max_diff, 0.25);
}

TEST(BidGrids, LogarithmicShape) {
  const auto grid = logarithmic_bid_grid(8.0, 4);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_DOUBLE_EQ(grid[0], 1.0);
  EXPECT_DOUBLE_EQ(grid[1], 2.0);
  EXPECT_DOUBLE_EQ(grid[2], 4.0);
  EXPECT_DOUBLE_EQ(grid[3], 8.0);
}

TEST(BidGrids, UniformShape) {
  const auto grid = uniform_bid_grid(10.0, 5);
  ASSERT_EQ(grid.size(), 5u);
  EXPECT_DOUBLE_EQ(grid[0], 2.0);
  EXPECT_DOUBLE_EQ(grid[4], 10.0);
}

TEST(FailureModel, RejectsBadInputs) {
  const SpotTrace trace(0.25, {0.05});
  EXPECT_THROW(FailureModel(trace, {}, config()), PreconditionError);
  EXPECT_THROW(FailureModel(trace, {0.2, 0.1}, config()), PreconditionError);  // unsorted
  EXPECT_THROW(FailureModel(trace, {0.0}, config()), PreconditionError);       // zero bid
}

}  // namespace
}  // namespace sompi
