// Shard-equivalence battery for the sharded plan-serving tier
// (src/service/sharded): the consistent-hash router's purity and ring
// stability, feed publication into the tier's one board, and the headline
// differential contract — for any request stream, an N-shard tier's plan
// fingerprints are bit-identical to the single-shard oracle's, its counters
// obey the conservation laws, and a tier-wide burst of identical requests
// solves exactly once. The multi-threaded epoch-churn chaos stress lives in
// test_sharded_stress.cpp.
#include "service/sharded/sharded_service.h"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "feed/pipeline.h"
#include "feed/tick_source.h"
#include "profile/paper_profiles.h"

namespace sompi {
namespace {

// ---------------------------------------------------------------------------
// ShardRouter: pure function, full coverage, ring stability.

std::vector<std::string> synthetic_keys(std::size_t count) {
  std::vector<std::string> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    keys.push_back("app=BT|deadline=" + std::to_string(17.0 + 0.001 * static_cast<double>(i)));
  return keys;
}

TEST(ShardRouter, IndependentlyBuiltRoutersAgreeOnEveryKey) {
  const RouterConfig config{.shards = 8, .vnodes = 64, .salt = 0xFEEDULL};
  const ShardRouter a(config);
  const ShardRouter b(config);
  for (const std::string& key : synthetic_keys(2000))
    EXPECT_EQ(a.route(key), b.route(key)) << key;
}

TEST(ShardRouter, EveryShardOwnsASliceOfTheKeySpace) {
  const ShardRouter router({.shards = 8, .vnodes = 64, .salt = 7});
  std::vector<std::size_t> owned(8, 0);
  for (const std::string& key : synthetic_keys(4000)) {
    const std::size_t shard = router.route(key);
    ASSERT_LT(shard, 8u);
    ++owned[shard];
  }
  for (std::size_t s = 0; s < owned.size(); ++s) {
    // 4000 keys over 8 shards: mean 500. vnodes=64 keeps the worst shard
    // well within [1/4x, 4x] of the mean — loose enough to never flake, tight
    // enough to catch a broken ring (one shard owning everything or nothing).
    EXPECT_GT(owned[s], 125u) << "shard " << s << " owns almost nothing";
    EXPECT_LT(owned[s], 2000u) << "shard " << s << " owns almost everything";
  }
}

TEST(ShardRouter, AddingAShardMovesOnlyItsShareOfKeys) {
  const std::vector<std::string> keys = synthetic_keys(4000);
  for (const std::size_t n : {2u, 4u, 8u}) {
    const ShardRouter before({.shards = n, .vnodes = 64, .salt = 99});
    const ShardRouter after({.shards = n + 1, .vnodes = 64, .salt = 99});
    std::size_t moved = 0;
    for (const std::string& key : keys) {
      const std::size_t to = after.route(key);
      if (to != before.route(key)) {
        ++moved;
        // Consistent hashing moves keys only TOWARD the new shard — an old
        // shard's points never change, so no key moves between old shards.
        EXPECT_EQ(to, n) << key;
      }
    }
    // Expectation: K/(n+1) keys move. Allow 2x for hash variance.
    EXPECT_LT(moved, 2 * keys.size() / (n + 1)) << "ring reshuffled at n=" << n;
    EXPECT_GT(moved, 0u) << "new shard owns nothing at n=" << n;
  }
}

TEST(ShardRouter, RemovingAShardIsTheMirrorImage) {
  const std::vector<std::string> keys = synthetic_keys(3000);
  const ShardRouter eight({.shards = 8, .vnodes = 64, .salt = 3});
  const ShardRouter seven({.shards = 7, .vnodes = 64, .salt = 3});
  for (const std::string& key : keys) {
    // Keys not owned by the removed shard (id 7) must not move at all.
    if (eight.route(key) != 7) {
      EXPECT_EQ(seven.route(key), eight.route(key)) << key;
    }
  }
}

TEST(ShardRouter, RejectsDegenerateConfigs) {
  EXPECT_THROW(ShardRouter({.shards = 0, .vnodes = 64, .salt = 0}), PreconditionError);
  EXPECT_THROW(ShardRouter({.shards = 4, .vnodes = 0, .salt = 0}), PreconditionError);
}

// ---------------------------------------------------------------------------
// ShardedPlanService: the differential battery.

class ShardedServiceTest : public ::testing::Test {
 protected:
  static ServiceConfig fast_config() {
    ServiceConfig c;
    c.cache = {.shards = 4, .capacity = 64};
    c.max_concurrent_solves = 2;
    c.max_queued_solves = 64;  // roomy: differential streams must never shed
    c.opt.max_candidates = 3;
    c.opt.max_groups = 2;
    c.opt.setup.log_levels = 3;
    c.opt.setup.failure.samples = 400;
    c.opt.ratio_bins = 32;
    return c;
  }

  ShardedConfig tier_config(std::size_t shards) const {
    ShardedConfig c;
    c.shards = shards;
    c.vnodes = 32;
    c.salt = 0xD15EA5EULL;
    c.service = fast_config();
    return c;
  }

  PlanRequest request(double factor, std::vector<std::string> types = {}) const {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h_ * factor;
    r.allowed_types = std::move(types);
    return r;
  }

  // One scripted step of the differential stream: either a request (served
  // routed, or sprayed onto `landing % shard_count`) or an epoch bump.
  struct Step {
    enum Kind { kServe, kSpray, kBump } kind = kServe;
    double factor = 1.5;
    std::size_t landing = 0;
    std::vector<double> prices;  // kBump: appended to group {0, 0}
  };

  struct StreamResult {
    std::vector<std::string> outcomes;      // outcome label per request step
    std::vector<std::string> fingerprints;  // "-" for shed
    ShardedStats stats;
    std::size_t distinct_solves = 0;
  };

  StreamResult run_stream(ShardedPlanService& tier, const std::vector<Step>& steps) const {
    StreamResult result;
    for (const Step& step : steps) {
      if (step.kind == Step::kBump) {
        tier.fanout().ingest({PriceUpdate{{0, 0}, step.prices}});
        continue;
      }
      const PlanRequest r = request(step.factor);
      const PlanResponse response =
          step.kind == Step::kSpray
              ? tier.serve_on(step.landing % tier.shard_count(), r)
              : tier.serve(r);
      result.outcomes.push_back(outcome_label(response.outcome));
      result.fingerprints.push_back(response.plan ? plan_fingerprint(*response.plan) : "-");
    }
    result.stats = tier.stats();
    result.distinct_solves = tier.distinct_solves();
    return result;
  }

  static std::vector<Step> scripted_stream() {
    // Three epochs, six distinct requests, repeats for hits, sprays landing
    // on deliberately wrong shards — every outcome class except shed.
    return {
        serve(1.3), serve(1.5),    spray(1.3, 3),
        serve(1.7), spray(1.5, 5), serve(1.3),
        bump({0.021, 0.027}),
        serve(1.3), spray(1.7, 1), serve(1.9),
        spray(1.9, 6), serve(1.5),
        bump({0.024}),
        spray(1.3, 2), serve(1.9), serve(1.3),
    };
  }
  static Step serve(double factor) { return {Step::kServe, factor, 0, {}}; }
  static Step spray(double factor, std::size_t landing) {
    return {Step::kSpray, factor, landing, {}};
  }
  static Step bump(std::vector<double> prices) {
    return {Step::kBump, 0, 0, std::move(prices)};
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/3.0,
                                   /*step_hours=*/0.25, /*seed=*/42);
  double baseline_h_ = OnDemandSelector(&catalog_, &est_).baseline(paper_profile("BT")).t_h;
};

TEST_F(ShardedServiceTest, FingerprintsAndCountersMatchTheSingleShardOracle) {
  const std::vector<Step> steps = scripted_stream();
  ShardedPlanService oracle(&catalog_, &est_, market_, tier_config(1));
  const StreamResult want = run_stream(oracle, steps);
  ASSERT_EQ(want.stats.total.sheds, 0u);

  for (const std::size_t shards : {2u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    ShardedPlanService tier(&catalog_, &est_, market_, tier_config(shards));
    const StreamResult got = run_stream(tier, steps);

    // The headline invariant: bit-identical fingerprints, step for step.
    EXPECT_EQ(got.fingerprints, want.fingerprints);
    // Sequential stream + global-budget cache split: even the hit/solve
    // classification per step is identical, not just the plans.
    EXPECT_EQ(got.outcomes, want.outcomes);

    EXPECT_EQ(got.stats.total.requests, want.stats.total.requests);
    EXPECT_EQ(got.stats.total.hits, want.stats.total.hits);
    EXPECT_EQ(got.stats.total.solves, want.stats.total.solves);
    EXPECT_EQ(got.stats.total.sheds, 0u);
    EXPECT_EQ(got.distinct_solves, want.distinct_solves);
    EXPECT_EQ(got.stats.duplicate_solves, 0u);

    // Conservation: per-shard counters sum to the aggregate, and the four
    // outcome classes partition the requests.
    std::uint64_t sum_requests = 0, sum_hits = 0, sum_solves = 0, sum_joins = 0,
                  sum_sheds = 0;
    for (const ServiceStats& shard : got.stats.per_shard) {
      sum_requests += shard.requests;
      sum_hits += shard.hits;
      sum_solves += shard.solves;
      sum_joins += shard.dedup_joins;
      sum_sheds += shard.sheds;
    }
    EXPECT_EQ(sum_requests, got.stats.total.requests);
    EXPECT_EQ(sum_hits + sum_solves + sum_joins + sum_sheds, sum_requests);
    EXPECT_EQ(got.stats.routed + got.stats.sprayed, got.stats.total.requests);

    EXPECT_EQ(got.stats.total.epoch, want.stats.total.epoch);
  }
}

TEST_F(ShardedServiceTest, SingleShardTierMatchesABarePlanService) {
  MarketBoard board(market_);
  PlanService bare(&catalog_, &est_, &board, fast_config());
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(1));

  for (const double factor : {1.3, 1.5, 1.3, 1.7, 1.5}) {
    const PlanResponse a = bare.serve(request(factor));
    const PlanResponse b = tier.serve(request(factor));
    EXPECT_EQ(a.outcome, b.outcome);
    ASSERT_NE(a.plan, nullptr);
    ASSERT_NE(b.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*a.plan), plan_fingerprint(*b.plan));
  }
  EXPECT_EQ(bare.stats().solves, tier.stats().total.solves);
  EXPECT_EQ(bare.stats().hits, tier.stats().total.hits);
}

TEST_F(ShardedServiceTest, RequestsRouteToTheirRingHomeAndOnlyThere) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(8));
  const PlanRequest r = request(1.4);
  const std::size_t home = tier.home_shard(r);
  ASSERT_LT(home, 8u);
  EXPECT_EQ(home, tier.home_shard_for_key(canonical_key(canonicalized(r))));

  (void)tier.serve(r);
  (void)tier.serve_on((home + 3) % 8, r);  // sprayed onto the wrong shard
  const ShardedStats stats = tier.stats();
  for (std::size_t i = 0; i < 8; ++i)
    EXPECT_EQ(stats.per_shard[i].requests, i == home ? 2u : 0u) << "shard " << i;
  EXPECT_EQ(stats.forwarded, 1u);
  EXPECT_EQ(stats.total.solves, 1u);
  EXPECT_EQ(stats.total.hits, 1u);
}

TEST_F(ShardedServiceTest, ConcurrentIdenticalBurstAcrossAllShardsSolvesOnce) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(8));

  // One identical request lands on every shard simultaneously — the dedup
  // tier must collapse the whole burst onto a single optimizer run.
  std::vector<PlanResponse> responses(8);
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t i = 0; i < 8; ++i)
    threads.emplace_back([&, i] { responses[i] = tier.serve_on(i, request(1.45)); });
  for (std::thread& t : threads) t.join();

  const ShardedStats stats = tier.stats();
  EXPECT_EQ(stats.total.requests, 8u);
  EXPECT_EQ(stats.total.solves, 1u);
  EXPECT_EQ(stats.total.sheds, 0u);
  EXPECT_EQ(stats.total.hits + stats.total.dedup_joins, 7u);
  EXPECT_EQ(stats.duplicate_solves, 0u);
  EXPECT_EQ(tier.distinct_solves(), 1u);
  EXPECT_EQ(stats.sprayed, 8u);
  EXPECT_EQ(stats.forwarded, 7u);  // exactly one landing was already home

  ASSERT_NE(responses[0].plan, nullptr);
  const std::string fp = plan_fingerprint(*responses[0].plan);
  for (const PlanResponse& r : responses) {
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*r.plan), fp);
  }
}

TEST_F(ShardedServiceTest, TierCacheSplitNeverShrinksBelowTheTierBudget) {
  // The split rule itself: ceil, never floor, never zero.
  EXPECT_EQ(ShardedPlanService::per_shard_cache_capacity(64, 8), 8u);
  EXPECT_EQ(ShardedPlanService::per_shard_cache_capacity(65, 8), 9u);
  EXPECT_EQ(ShardedPlanService::per_shard_cache_capacity(3, 8), 1u);
  EXPECT_EQ(ShardedPlanService::per_shard_cache_capacity(64, 1), 64u);

  ShardedConfig config = tier_config(8);
  ShardedPlanService tier(&catalog_, &est_, market_, config);
  for (std::size_t i = 0; i < tier.shard_count(); ++i)
    EXPECT_EQ(tier.shard(i).config().cache.capacity,
              ShardedPlanService::per_shard_cache_capacity(config.service.cache.capacity, 8));
}

TEST_F(ShardedServiceTest, WipedShardReSolvesToTheIdenticalPlan) {
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  const PlanRequest r = request(1.55);
  const PlanResponse first = tier.serve(r);
  ASSERT_EQ(first.outcome, PlanOutcome::kSolved);

  const std::size_t home = tier.home_shard(r);
  EXPECT_GE(tier.shard(home).wipe_cache(), 1u);

  const PlanResponse again = tier.serve(r);
  EXPECT_EQ(again.outcome, PlanOutcome::kSolved);  // cache gone, solves again
  EXPECT_EQ(plan_fingerprint(*again.plan), plan_fingerprint(*first.plan));
  // The wipe legitimately broke the one-solve economy — the ledger says so.
  EXPECT_EQ(tier.duplicate_solves(), 1u);
}

TEST_F(ShardedServiceTest, RejectsZeroShardsAndOutOfRangeLanding) {
  EXPECT_THROW(ShardedPlanService(&catalog_, &est_, market_, tier_config(0)),
               PreconditionError);
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(2));
  EXPECT_THROW(tier.serve_on(2, request(1.5)), PreconditionError);
  EXPECT_THROW(tier.shard(2), PreconditionError);
  EXPECT_THROW(tier.board(2), PreconditionError);
}

TEST_F(ShardedServiceTest, FeedPublicationsReachEveryShardAtTheOracleEpoch) {
  // One FeedPipeline per tier, fed the identical tick stream: after every
  // publication each shard reports the tier's epoch and serves the plan the
  // 1-shard oracle serves at that epoch, whichever shard it lands on.
  const std::size_t tail = 12;
  const std::size_t visible = market_.trace({0, 0}).steps() - tail;
  const Market primed = market_.window(0, visible);
  ShardedPlanService tier(&catalog_, &est_, primed, tier_config(4));
  ShardedPlanService oracle(&catalog_, &est_, primed, tier_config(1));
  feed::FeedConfig cfg;
  cfg.publish_every = 4;
  feed::FeedPipeline tier_feed(&tier.fanout(), cfg);
  feed::FeedPipeline oracle_feed(&oracle.fanout(), cfg);

  feed::ReplayTickSource source(&market_, {}, visible, tail);
  std::uint64_t published = 0;
  while (const std::optional<feed::Tick> tick = source.next()) {
    tier_feed.offer(*tick);
    oracle_feed.offer(*tick);
    if (tier_feed.stats().epochs_published == published) continue;
    published = tier_feed.stats().epochs_published;
    SCOPED_TRACE("publication " + std::to_string(published));
    ASSERT_EQ(oracle_feed.stats().epochs_published, published);

    const ShardedStats stats = tier.stats();
    ASSERT_EQ(stats.total.epoch, oracle.stats().total.epoch);
    for (std::size_t i = 0; i < tier.shard_count(); ++i)
      EXPECT_EQ(stats.per_shard[i].epoch, stats.total.epoch) << "shard " << i;

    const PlanResponse want = oracle.serve(request(1.5));
    ASSERT_NE(want.plan, nullptr);
    for (std::size_t i = 0; i < tier.shard_count(); ++i) {
      const PlanResponse got = tier.serve_on(i, request(1.5));
      ASSERT_NE(got.plan, nullptr);
      EXPECT_EQ(got.epoch, want.epoch) << "shard " << i;
      EXPECT_EQ(plan_fingerprint(*got.plan), plan_fingerprint(*want.plan)) << "shard " << i;
    }
  }
  EXPECT_EQ(published, tail / cfg.publish_every);
  EXPECT_EQ(tier.duplicate_solves(), 0u);
}

}  // namespace
}  // namespace sompi
