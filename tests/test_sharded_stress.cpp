// TSan-targeted stress for the sharded plan-serving tier: 8 shards hammered
// by 8 worker threads mixing ring-routed and sprayed requests while a bumper
// thread churns the epoch through the tier's one shared board — plus a
// chaos variant that wipes shard caches mid-flight. (The exactly-once
// completeness law for requests entering through the wire door is
// tests/test_wire_stress.cpp's.)
//
// The assertions encode the tier's hard guarantees:
//   1. no lost wakeups — every request terminates (the test hangs, and CI
//      times out, otherwise);
//   2. exactly ONE solve per (canonical request, epoch) tier-wide, counted
//      at the built-in solve ledger, across sprayed landings and epoch
//      bumps racing the sweeps (waived only under cache-wipe chaos);
//   3. every plan handed out is bit-identical (plan_fingerprint) to a fresh
//      solve against the market that was current at the plan's epoch — wipe
//      chaos included.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "profile/paper_profiles.h"
#include "service/sharded/sharded_service.h"

namespace sompi {
namespace {

class ShardedStressTest : public ::testing::Test {
 protected:
  static constexpr int kShards = 8;
  static constexpr int kWorkers = 8;
  static constexpr int kItersPerWorker = 12;
  static constexpr int kEpochBumps = 4;
  static constexpr int kDistinctRequests = 4;

  ShardedConfig stress_config() {
    ShardedConfig c;
    c.shards = kShards;
    c.vnodes = 16;
    c.salt = 0xBADC0FFEEULL;
    c.service.cache = {.shards = 4, .capacity = 256};
    c.service.max_concurrent_solves = 4;
    c.service.max_queued_solves = 64;  // roomy: sheds would hide dedup coverage
    c.service.opt.max_candidates = 2;
    c.service.opt.max_groups = 2;
    c.service.opt.setup.log_levels = 2;
    c.service.opt.setup.failure.samples = 200;
    c.service.opt.ratio_bins = 16;
    return c;
  }

  PlanRequest request(int which) const {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h_ * (1.5 + 0.25 * which);
    return r;
  }

  // Shared body of the clean and chaos variants: mixed serve/serve_on load
  // from kWorkers threads under epoch churn, then the post-mortem fingerprint
  // audit against the recorded per-epoch worlds. `wiper` (optional) runs
  // between bumps on the bumper thread.
  void run_churn(ShardedPlanService& tier, const std::function<void(int)>& wiper,
                 bool expect_one_solve_economy) {
    std::mutex worlds_mutex;
    std::map<std::uint64_t, std::shared_ptr<const Market>> worlds;
    worlds[1] = tier.board(0).snapshot().market;

    std::atomic<int> remaining_workers{kWorkers};
    std::thread bumper([&] {
      for (int b = 0; b < kEpochBumps && remaining_workers.load() > 0; ++b) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        const double price = 0.02 + 0.01 * b;
        const std::uint64_t epoch =
            tier.fanout().ingest({PriceUpdate{{0, 0}, {price, price}},
                                  PriceUpdate{{1, 1}, {price * 2.0, price * 2.0}}});
        {
          std::lock_guard<std::mutex> lock(worlds_mutex);
          worlds[epoch] = tier.board(0).snapshot().market;
        }
        if (wiper) wiper(b);
      }
    });

    struct Observed {
      PlanRequest request;
      PlanResponse response;
    };
    std::vector<std::vector<Observed>> per_worker(kWorkers);
    std::vector<std::thread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&, w] {
        std::uint64_t lcg = 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(w + 1);
        for (int i = 0; i < kItersPerWorker; ++i) {
          lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
          const int which = static_cast<int>((lcg >> 33) % kDistinctRequests);
          const PlanRequest r = request(which);
          // Alternate the tier's two front doors: ring-routed serve() and a
          // sprayed landing on an arbitrary shard (the cross-shard path).
          const PlanResponse response =
              (i % 2 == 0) ? tier.serve(r)
                           : tier.serve_on(static_cast<std::size_t>((lcg >> 17) % kShards), r);
          ASSERT_NE(response.plan, nullptr);  // roomy queues: no sheds expected
          per_worker[w].push_back({r, response});
        }
        remaining_workers.fetch_add(-1);
      });
    }
    for (auto& th : workers) th.join();
    bumper.join();

    // Guarantee 3: post-mortem fingerprint audit. Deduplicate (key, epoch)
    // before the fresh re-solves — the fingerprint is a pure function of
    // them, chaos or not.
    std::map<std::pair<std::string, std::uint64_t>, std::string> seen;
    for (const auto& observations : per_worker) {
      for (const Observed& o : observations) {
        const PlanRequest canon = canonicalized(o.request);
        const auto id = std::make_pair(canonical_key(canon), o.response.epoch);
        const std::string fp = plan_fingerprint(*o.response.plan);
        const auto [it, inserted] = seen.emplace(id, fp);
        if (!inserted) {
          EXPECT_EQ(fp, it->second) << "two responses for one (request, epoch) differ";
          continue;
        }
        const auto world = worlds.find(o.response.epoch);
        ASSERT_NE(world, worlds.end());
        const Plan fresh = tier.shard(0).solve(canon, *world->second);
        EXPECT_EQ(fp, plan_fingerprint(fresh))
            << "tier plan deviates from a fresh solve at epoch " << o.response.epoch;
      }
    }

    // Conservation: outcome classes partition the requests, per-shard sums
    // equal the aggregate, and the two front doors account for every entry.
    const ShardedStats stats = tier.stats();
    const auto total = static_cast<std::uint64_t>(kWorkers * kItersPerWorker);
    EXPECT_EQ(stats.total.requests, total);
    EXPECT_EQ(stats.routed + stats.sprayed, total);
    EXPECT_EQ(stats.total.hits + stats.total.solves + stats.total.dedup_joins +
                  stats.total.sheds,
              stats.total.requests);
    EXPECT_EQ(stats.total.sheds, 0u);
    std::uint64_t sum_requests = 0;
    for (const ServiceStats& shard : stats.per_shard) sum_requests += shard.requests;
    EXPECT_EQ(sum_requests, stats.total.requests);

    // Guarantee 2 — only when chaos didn't legitimately break the economy.
    if (expect_one_solve_economy) {
      EXPECT_EQ(stats.duplicate_solves, 0u);
      EXPECT_EQ(stats.total.solves, static_cast<std::uint64_t>(tier.distinct_solves()));
    } else {
      EXPECT_EQ(stats.total.solves,
                static_cast<std::uint64_t>(tier.distinct_solves()) + stats.duplicate_solves);
    }
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/2.0,
                                   /*step_hours=*/0.25, /*seed=*/7);
  double baseline_h_ = OnDemandSelector(&catalog_, &est_).baseline(paper_profile("BT")).t_h;
};

TEST_F(ShardedStressTest, MixedSprayedLoadAcrossEpochBumps) {
  ShardedPlanService tier(&catalog_, &est_, market_, stress_config());
  run_churn(tier, nullptr, /*expect_one_solve_economy=*/true);
}

TEST_F(ShardedStressTest, SurvivesCacheWipeChaosMidFlight) {
  ShardedPlanService tier(&catalog_, &est_, market_, stress_config());
  // After every bump, kill a rotating shard's whole cache — current epoch
  // included. Fingerprint correctness must hold anyway; the one-solve
  // economy is legitimately waived (the ledger still balances the books).
  run_churn(
      tier, [&](int b) { tier.shard(static_cast<std::size_t>(b) % kShards).wipe_cache(); },
      /*expect_one_solve_economy=*/false);
}

}  // namespace
}  // namespace sompi
