// Determinism-first tests for the parallel execution engine: pool-level unit
// tests for src/common/thread_pool.h, plus bit-for-bit equality of optimizer
// plans and Monte Carlo summaries across threads ∈ {1, 2, 8}.
// Bit-reproducibility is the whole value proposition (common/rng.h): a
// parallel sweep that drifts with the schedule is useless as an experiment
// substrate.
#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/optimizer.h"
#include "profile/paper_profiles.h"
#include "sim/monte_carlo.h"

namespace sompi {
namespace {

// ---------------------------------------------------------------------------
// Pool-level unit tests.

TEST(ThreadPool, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  pool.for_each_index(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
}

TEST(ThreadPool, EmptyRangeIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.for_each_index(0, 4, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleElementRangeRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  const auto caller = std::this_thread::get_id();
  pool.for_each_index(1, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // n == 1 short-circuits
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, ZeroWorkerPoolDrainsOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0u);
  int sum = 0;  // single-threaded by construction
  pool.for_each_index(100, 8, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.for_each_index(4, 4, [&](std::size_t) {
    pool.for_each_index(64, 4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4 * 64);
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.for_each_index(100, 4, [&](std::size_t i) {
      if (i == 37) throw std::runtime_error("boom");
      ran.fetch_add(1);
    });
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom");
  }
  // Short-circuit: unclaimed indices are skipped, so not all 99 need run.
  EXPECT_LT(ran.load(), 100);
}

TEST(ThreadPool, ExceptionInNestedBodyPropagatesOutward) {
  ThreadPool pool(3);
  EXPECT_THROW(pool.for_each_index(3, 4,
                                   [&](std::size_t) {
                                     pool.for_each_index(16, 4, [&](std::size_t j) {
                                       if (j == 5) throw std::logic_error("inner");
                                     });
                                   }),
               std::logic_error);
}

TEST(ThreadPool, ConcurrentCallersShareThePool) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c)
    callers.emplace_back(
        [&] { pool.for_each_index(200, 3, [&](std::size_t) { total.fetch_add(1); }); });
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 4 * 200);
}

TEST(ParallelHelpers, ResolveThreads) {
  EXPECT_GE(resolve_threads(0), 1u);
  EXPECT_EQ(resolve_threads(1), 1u);
  EXPECT_EQ(resolve_threads(7), 7u);
  EXPECT_GE(hardware_threads(), 1u);
}

TEST(ParallelHelpers, ParallelForSerialWhenThreadsIsOne) {
  // threads == 1 must never touch the pool: same thread, in order.
  std::vector<std::size_t> order;
  const auto caller = std::this_thread::get_id();
  parallel_for(50, 1, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 50u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelHelpers, ReduceIsBitIdenticalAcrossThreadCounts) {
  // Floating-point sums depend on grouping; parallel_reduce fixes the
  // grouping by (n, grain), so any thread count gives the same bits.
  const auto sum_with = [](unsigned threads) {
    return parallel_reduce(
        10000, threads, 0.0, [](std::size_t i) { return 1.0 / static_cast<double>(i + 1); },
        [](double a, double b) { return a + b; }, /*grain=*/64);
  };
  const double serial = sum_with(1);
  EXPECT_EQ(serial, sum_with(2));
  EXPECT_EQ(serial, sum_with(8));
  EXPECT_NEAR(serial, 9.7876060, 1e-5);  // harmonic(10000) sanity
}

TEST(ParallelHelpers, ReduceEmptyAndSingleRanges) {
  const auto map = [](std::size_t i) { return static_cast<int>(i) + 1; };
  const auto add = [](int a, int b) { return a + b; };
  EXPECT_EQ(parallel_reduce(0, 8, 100, map, add), 100);
  EXPECT_EQ(parallel_reduce(1, 8, 0, map, add), 1);
}

TEST(ParallelHelpers, ReduceNonCommutativeCombineKeepsChunkOrder) {
  // Concatenation is associative but not commutative: order must be exact.
  const auto concat = [](std::string a, std::string b) { return a + b; };
  const auto digit = [](std::size_t i) { return std::string(1, char('0' + i % 10)); };
  const std::string serial =
      parallel_reduce(26, 1, std::string(), digit, concat, /*grain=*/4);
  EXPECT_EQ(serial, "01234567890123456789012345");
  EXPECT_EQ(parallel_reduce(26, 8, std::string(), digit, concat, /*grain=*/4), serial);
}

// ---------------------------------------------------------------------------
// Determinism layer: same seed ⇒ same bits at any thread count, across the
// two parallelized hot paths.

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static OptimizerConfig fast_config(unsigned threads) {
    OptimizerConfig c;
    c.max_candidates = 5;
    c.setup.log_levels = 5;
    c.setup.failure.samples = 800;
    c.ratio_bins = 64;
    c.threads = threads;
    return c;
  }

  static void expect_identical(const Plan& a, const Plan& b) {
    EXPECT_EQ(a.spot_feasible, b.spot_feasible);
    EXPECT_EQ(a.model_evaluations, b.model_evaluations);
    EXPECT_EQ(a.expected.cost_usd, b.expected.cost_usd);
    EXPECT_EQ(a.expected.time_h, b.expected.time_h);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
      EXPECT_EQ(a.groups[g].name, b.groups[g].name);
      EXPECT_EQ(a.groups[g].instances, b.groups[g].instances);
      EXPECT_EQ(a.groups[g].bid_usd, b.groups[g].bid_usd);
      EXPECT_EQ(a.groups[g].f_steps, b.groups[g].f_steps);
      EXPECT_EQ(a.groups[g].t_steps, b.groups[g].t_steps);
    }
    EXPECT_EQ(a.od.t_h, b.od.t_h);
  }

  static void expect_identical(const Summary& a, const Summary& b) {
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.mean, b.mean);
    EXPECT_EQ(a.stddev, b.stddev);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p95, b.p95);
    EXPECT_EQ(a.max, b.max);
  }

  static void expect_identical(const MonteCarloStats& a, const MonteCarloStats& b) {
    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.deadline_miss_rate, b.deadline_miss_rate);
    EXPECT_EQ(a.od_fallback_rate, b.od_fallback_rate);
    expect_identical(a.cost, b.cost);
    expect_identical(a.time, b.time);
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/10.0,
                                   /*step_hours=*/0.25, /*seed=*/77);
  AppProfile bt_ = paper_profile("BT");
  double deadline_ = OnDemandSelector(&catalog_, &est_).baseline(bt_).t_h * 1.5;
};

TEST_F(ParallelDeterminismTest, OptimizerPlanIsBitIdenticalAcrossThreadCounts) {
  const SompiOptimizer serial(&catalog_, &est_, fast_config(1));
  const Plan p1 = serial.optimize(bt_, market_, deadline_);
  ASSERT_TRUE(p1.spot_feasible);
  for (const unsigned threads : {2u, 8u}) {
    const SompiOptimizer parallel(&catalog_, &est_, fast_config(threads));
    const Plan pt = parallel.optimize(bt_, market_, deadline_);
    expect_identical(p1, pt);
  }
}

TEST_F(ParallelDeterminismTest, MonteCarloRunPlanIsBitIdenticalAcrossThreadCounts) {
  const SompiOptimizer opt(&catalog_, &est_, fast_config(1));
  const Plan plan = opt.optimize(bt_, market_, deadline_);

  const auto stats_with = [&](unsigned threads) {
    MonteCarloConfig mc;
    mc.runs = 24;
    mc.reserve_h = 96.0;
    mc.threads = threads;
    return MonteCarloRunner(&market_, {}, mc).run_plan(plan, deadline_);
  };
  const MonteCarloStats s1 = stats_with(1);
  EXPECT_EQ(s1.runs, 24u);
  expect_identical(s1, stats_with(2));
  expect_identical(s1, stats_with(8));
}

TEST_F(ParallelDeterminismTest, MonteCarloPlannedIsBitIdenticalAcrossThreadCounts) {
  // Re-plans per start point: exercises a thread-safe planner (the optimizer
  // is const and self-contained per call) under the parallel harness.
  const SompiOptimizer opt(&catalog_, &est_, fast_config(1));
  const auto stats_with = [&](unsigned threads) {
    MonteCarloConfig mc;
    mc.runs = 6;
    mc.reserve_h = 96.0;
    mc.threads = threads;
    return MonteCarloRunner(&market_, {}, mc)
        .run_planned([&](const Market& h, double dl) { return opt.optimize(bt_, h, dl); },
                     deadline_);
  };
  const MonteCarloStats s1 = stats_with(1);
  expect_identical(s1, stats_with(2));
  expect_identical(s1, stats_with(8));
}

TEST_F(ParallelDeterminismTest, MonteCarloAdaptiveIsBitIdenticalAcrossThreadCounts) {
  AdaptiveConfig cfg;
  cfg.opt = fast_config(1);
  cfg.window_h = 20.0;
  const AdaptiveEngine engine(&catalog_, &est_, cfg);
  const auto stats_with = [&](unsigned threads) {
    MonteCarloConfig mc;
    mc.runs = 4;
    mc.reserve_h = 96.0;
    mc.threads = threads;
    return MonteCarloRunner(&market_, {}, mc).run_adaptive(engine, bt_, deadline_);
  };
  const MonteCarloStats s1 = stats_with(1);
  expect_identical(s1, stats_with(2));
  expect_identical(s1, stats_with(8));
}

}  // namespace
}  // namespace sompi
