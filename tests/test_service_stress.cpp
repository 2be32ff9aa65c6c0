// TSan-targeted stress for the plan-serving subsystem: 8+ worker threads
// hammer one PlanService with a mix of identical and distinct requests while
// a bumper thread advances the market epoch underneath them. Run under
// -DSOMPI_SANITIZE=thread this exercises every lock-ordering and wakeup path
// (cache shards, single-flight table, admission queue, epoch sweeps).
//
// The assertions encode the subsystem's three hard guarantees:
//   1. no lost wakeups — every request terminates with a definite outcome
//      (the test itself would hang, and CI time out, otherwise);
//   2. at most ONE optimizer run per (canonical request, epoch), counted at
//      the solve hook, across concurrent identical requests AND epoch bumps
//      racing the sweep;
//   3. every plan handed out — hit, solved or joined — is bit-identical
//      (plan_fingerprint) to a fresh solve against the exact market that was
//      current at the plan's epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "profile/paper_profiles.h"
#include "service/plan_service.h"

namespace sompi {
namespace {

class ServiceStressTest : public ::testing::Test {
 protected:
  static constexpr int kWorkers = 8;
  static constexpr int kItersPerWorker = 24;
  static constexpr int kEpochBumps = 4;
  static constexpr int kDistinctRequests = 4;

  ServiceConfig stress_config() {
    ServiceConfig c;
    c.cache = {.shards = 4, .capacity = 256};  // ample: eviction can't fake a re-solve
    c.max_concurrent_solves = 4;
    c.max_queued_solves = 64;  // roomy queue: sheds would hide dedup coverage
    c.opt.max_candidates = 2;
    c.opt.max_groups = 2;
    c.opt.setup.log_levels = 2;
    c.opt.setup.failure.samples = 200;
    c.opt.ratio_bins = 16;
    return c;
  }

  PlanRequest request(int which) const {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h_ * (1.5 + 0.25 * which);
    return r;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/2.0,
                                   /*step_hours=*/0.25, /*seed=*/7);
  MarketBoard board_{market_};
  double baseline_h_ = OnDemandSelector(&catalog_, &est_).baseline(paper_profile("BT")).t_h;
};

TEST_F(ServiceStressTest, ConcurrentMixedLoadAcrossEpochBumps) {
  // Solve-per-(request, epoch) ledger, fed by the solve hook.
  std::mutex ledger_mutex;
  std::map<std::pair<std::string, std::uint64_t>, int> solve_counts;

  ServiceConfig cfg = stress_config();
  cfg.solve_hook = [&](const std::string& key, std::uint64_t epoch) {
    std::lock_guard<std::mutex> lock(ledger_mutex);
    ++solve_counts[{key, epoch}];
  };
  PlanService service(&catalog_, &est_, &board_, cfg);

  // The market that was current at each epoch, for after-the-fact fresh
  // solves. Epoch 1 is the initial board state; the bumper records the rest.
  std::mutex worlds_mutex;
  std::map<std::uint64_t, std::shared_ptr<const Market>> worlds;
  worlds[1] = board_.snapshot().market;

  std::atomic<int> remaining_workers{kWorkers};
  std::thread bumper([&] {
    for (int b = 0; b < kEpochBumps && remaining_workers.load() > 0; ++b) {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      const double price = 0.02 + 0.01 * b;
      const std::uint64_t epoch =
          board_.ingest({PriceUpdate{{0, 0}, {price, price}},
                         PriceUpdate{{1, 1}, {price * 2.0, price * 2.0}}});
      std::lock_guard<std::mutex> lock(worlds_mutex);
      worlds[epoch] = board_.snapshot().market;
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
      // Deterministic per-worker request mix; a cheap LCG keeps workers
      // independent without touching any shared RNG.
      std::uint64_t lcg = 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(w + 1);
      for (int i = 0; i < kItersPerWorker; ++i) {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        const int which = static_cast<int>((lcg >> 33) % kDistinctRequests);
        const PlanRequest r = request(which);
        const PlanResponse response = service.serve(r);
        ASSERT_NE(response.plan, nullptr);  // queue is roomy: no sheds expected
        per_worker[w].push_back({r, response});
      }
      remaining_workers.fetch_add(-1);
    });
  }
  for (auto& th : workers) th.join();
  bumper.join();

  // Guarantee 2: the burst dedup is exact — one solve per (request, epoch).
  for (const auto& [key, count] : solve_counts)
    EXPECT_EQ(count, 1) << "duplicate solve for epoch " << key.second;

  // Guarantee 3: every response is bit-identical to a fresh solve against
  // the world at its epoch. Deduplicate before re-solving: the fingerprint
  // is a pure function of (request, epoch).
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
      const Plan fresh = service.solve(canon, *world->second);
      EXPECT_EQ(fp, plan_fingerprint(fresh))
          << "cached/joined plan deviates from a fresh solve at epoch "
          << o.response.epoch;
    }
  }

  // Bookkeeping sanity: every request is accounted for exactly once.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kWorkers * kItersPerWorker));
  EXPECT_EQ(stats.hits + stats.solves + stats.dedup_joins + stats.sheds, stats.requests);
  EXPECT_EQ(stats.sheds, 0u);
  EXPECT_EQ(stats.solves, static_cast<std::uint64_t>(solve_counts.size()));
  EXPECT_GE(stats.epoch, 1u);
}

// A tight burst at one epoch: N identical requests arriving together must
// produce exactly one solve and N−1 hits/joins, even with nothing else
// running — the acceptance shape of the dedup counter.
TEST_F(ServiceStressTest, IdenticalBurstYieldsExactlyOneSolve) {
  std::atomic<int> solves{0};
  ServiceConfig cfg = stress_config();
  cfg.solve_hook = [&](const std::string&, std::uint64_t) { solves.fetch_add(1); };
  PlanService service(&catalog_, &est_, &board_, cfg);

  constexpr int kBurst = 12;
  std::vector<std::thread> threads;
  std::vector<PlanResponse> responses(kBurst);
  for (int t = 0; t < kBurst; ++t)
    threads.emplace_back([&, t] { responses[t] = service.serve(request(0)); });
  for (auto& th : threads) th.join();

  EXPECT_EQ(solves.load(), 1);
  EXPECT_EQ(service.stats().solves, 1u);
  for (const PlanResponse& r : responses) {
    ASSERT_NE(r.plan, nullptr);
    EXPECT_EQ(plan_fingerprint(*r.plan), plan_fingerprint(*responses[0].plan));
  }
}

TEST_F(ServiceStressTest, RapidEpochChurnNeverServesStalePlans) {
  // MarketBoard + PlanCache under rapid epoch churn: one publisher bumps the
  // epoch kChurnPublishes times while kWorkers threads look up / insert
  // continuously. Every plan a lookup returns must carry exactly the epoch
  // it was requested at (the epoch is baked into Plan::app at insert), and
  // the cache's hit-rate counters must tally on the quiescent snapshot.
  constexpr int kChurnPublishes = 200;
  constexpr int kKeys = 6;
  PlanCache cache({.shards = 4, .capacity = 64});
  MarketBoard board(market_);

  auto make_plan = [](std::uint64_t epoch) {
    auto plan = std::make_shared<Plan>();
    plan->app = "epoch-" + std::to_string(epoch);  // the staleness tag
    return std::shared_ptr<const Plan>(std::move(plan));
  };

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stale_served{0};
  std::atomic<std::uint64_t> lookups_done{0};
  std::atomic<int> workers_running{0};

  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string key = "req-" + std::to_string((w + local) % kKeys);
        const std::uint64_t epoch = board.epoch();
        if (const auto plan = cache.lookup(key, epoch)) {
          if (plan->app != "epoch-" + std::to_string(epoch))
            stale_served.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.insert(key, epoch, make_plan(epoch));
        }
        if (++local == 1) workers_running.fetch_add(1);
      }
      lookups_done.fetch_add(local, std::memory_order_relaxed);
    });
  }

  // Churn only once every worker is looking up: on a loaded host the 200
  // bumps can otherwise finish before any worker thread is scheduled.
  while (workers_running.load() < kWorkers) std::this_thread::yield();
  for (int i = 0; i < kChurnPublishes; ++i) {
    board.ingest({});  // epoch bump
    cache.erase_older_than(board.epoch());
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : workers) t.join();

  EXPECT_EQ(stale_served.load(), 0u);
  EXPECT_GT(lookups_done.load(), 0u);
  const PlanCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, lookups_done.load());
  EXPECT_LE(s.hits, s.lookups);
  // Every insertion was preceded by a miss; racing misses on one (key,
  // epoch) collapse to a single insertion (the second is a replace).
  EXPECT_GT(s.insertions, 0u);
  EXPECT_LE(s.insertions, s.lookups - s.hits);
  // Nothing vanishes silently: entries are either live, evicted by LRU
  // pressure, or reclaimed by the stale sweeps.
  EXPECT_EQ(cache.size() + s.evictions + s.stale_dropped, s.insertions);
  EXPECT_GT(board.epoch(), static_cast<std::uint64_t>(kChurnPublishes));
}

}  // namespace
}  // namespace sompi
