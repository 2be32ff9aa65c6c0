// Concurrency and chaos stress for the wire serving front end — meant to run
// under TSan in CI. Eight clients with eight submitting threads hammer one
// PlanServerLoop; the invariants are the exactly-once completeness law
// (every submitted request id gets exactly one completion — plan, explicit
// shed, or error — nothing lost, nothing duplicated, nothing blocked
// forever) and the equivalence contract (every plan that does come back is
// fingerprint-byte-identical to the in-process oracle), with and without
// seeded connection-drop chaos in the pipes — and the completeness law again
// behind a starved tier (tier sheds come back as plan frames, not errors)
// and across epoch bumps racing routed and sprayed submissions.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "faultinject/injector.h"
#include "net/client.h"
#include "net/server.h"
#include "profile/paper_profiles.h"
#include "service/request.h"
#include "service/sharded/sharded_service.h"

namespace sompi::net {
namespace {

class WireStress : public ::testing::Test {
 protected:
  static ServiceConfig fast_config() {
    ServiceConfig c;
    c.cache = {.shards = 4, .capacity = 64};
    c.max_concurrent_solves = 2;
    c.max_queued_solves = 256;
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

  PlanRequest request(double factor) const {
    PlanRequest r;
    r.app = paper_profile("BT");
    r.deadline_h = baseline_h_ * factor;
    return r;
  }

  /// Oracle fingerprints for the distinct factors the stress streams use
  /// (all at epoch 1 — the stress applies no bumps, so every response must
  /// match regardless of interleaving).
  std::map<std::string, std::string> oracle_fingerprints(const std::vector<double>& factors) {
    ShardedPlanService oracle(&catalog_, &est_, market_, tier_config(1));
    std::map<std::string, std::string> want;
    for (const double factor : factors) {
      const PlanRequest r = request(factor);
      want[canonical_key(canonicalized(r))] = plan_fingerprint(*oracle.serve(r).plan);
    }
    return want;
  }

  Catalog catalog_ = paper_catalog();
  ExecTimeEstimator est_;
  Market market_ = generate_market(catalog_, paper_market_profile(catalog_), /*days=*/3.0,
                                   /*step_hours=*/0.25, /*seed=*/42);
  double baseline_h_ = OnDemandSelector(&catalog_, &est_).baseline(paper_profile("BT")).t_h;
};

TEST_F(WireStress, EightClientsEightThreadsServeOnlyOracleIdenticalPlans) {
  const std::vector<double> factors = {1.30, 1.45, 1.60, 1.75};
  const std::map<std::string, std::string> want = oracle_fingerprints(factors);

  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  PlanServerLoop server(&tier, {.workers = 4});

  std::vector<std::unique_ptr<PlanClient>> clients;
  for (std::size_t i = 0; i < 8; ++i)
    clients.push_back(std::make_unique<PlanClient>(
        &server, i % 2 == 0 ? ClientMode::kRouted : ClientMode::kSpray));

  std::atomic<std::uint64_t> served{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      // Thread t drives client t: 8 blocking round trips over the shared
      // factor set — every response must be the oracle's plan, whatever the
      // global interleaving of hits, solves and dedup joins.
      PlanClient& client = *clients[t];
      for (std::size_t i = 0; i < 8; ++i) {
        const PlanRequest r = request(factors[(t + i) % factors.size()]);
        const PlanResponse response = client.plan(r);
        if (response.plan == nullptr ||
            plan_fingerprint(*response.plan) != want.at(canonical_key(canonicalized(r)))) {
          failures.fetch_add(1);
          return;
        }
        served.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(served.load(), 64u);
  const WireTierStats stats = server.stats();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_EQ(stats.sheds, 0u);
  EXPECT_EQ(stats.frames_rejected, 0u);
  EXPECT_EQ(stats.wire_errors, 0u);
  // Half the clients are router-aware and half spray, yet the one-solve
  // economy holds tier-wide: one solve per distinct key, ever.
  EXPECT_EQ(stats.solves, factors.size());
  EXPECT_EQ(stats.duplicate_solves, 0u);
  for (auto& client : clients) EXPECT_EQ(client->codec_stats().rejects(), 0u);
}

TEST_F(WireStress, ConnectionDropChaosNeverBreaksTheCompletenessLaw) {
  const std::vector<double> factors = {1.35, 1.50, 1.65};
  const std::map<std::string, std::string> want = oracle_fingerprints(factors);

  // Chaos on every pipe: drops, torn writes and maximal read fragmentation.
  // Probabilities are high enough that drops reliably happen across 8
  // clients, low enough that some requests survive to verify equivalence.
  fi::FaultPlan plan;
  plan.seed = 0xC0FFEEull;
  plan.p_wire_drop = 0.05;
  plan.p_wire_torn = 0.05;
  plan.p_wire_short_read = 0.5;
  fi::FaultInjector injector(plan);

  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  PlanServerLoop server(&tier, {.workers = 4, .faults = &injector});

  std::vector<std::unique_ptr<PlanClient>> clients;
  for (std::size_t i = 0; i < 8; ++i)
    clients.push_back(std::make_unique<PlanClient>(&server, ClientMode::kRouted));

  // One submitting thread per client: fire a burst of async submissions,
  // then drain — under chaos a completion may be a plan, a shed, or an
  // error ("connection dropped"), but every id must appear exactly once.
  std::atomic<int> violations{0};
  std::atomic<std::uint64_t> plans_checked{0};
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      PlanClient& client = *clients[t];
      std::map<std::uint64_t, std::string> expect;  // id → oracle fingerprint
      for (std::size_t i = 0; i < 8; ++i) {
        const PlanRequest r = request(factors[(t + i) % factors.size()]);
        expect[client.submit(r)] = want.at(canonical_key(canonicalized(r)));
      }
      client.drain();
      std::set<std::uint64_t> seen;
      for (const ClientCompletion& completion : client.harvest()) {
        if (!seen.insert(completion.request_id).second ||
            expect.count(completion.request_id) == 0) {
          violations.fetch_add(1);  // duplicated or unknown id
          continue;
        }
        if (!completion.error.empty()) continue;  // chaos casualty: allowed
        if (completion.response.plan == nullptr) {
          if (completion.response.outcome != PlanOutcome::kShed) violations.fetch_add(1);
          continue;
        }
        if (plan_fingerprint(*completion.response.plan) !=
            expect.at(completion.request_id)) {
          violations.fetch_add(1);  // survived the wire but came back wrong
          continue;
        }
        plans_checked.fetch_add(1);
      }
      if (seen.size() != expect.size()) violations.fetch_add(1);  // lost ids
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(violations.load(), 0);
  // With p_drop = p_torn = 0.05 on 8 pipes, plenty of requests survive; a
  // zero here would mean the chaos config drowned the test's other half.
  EXPECT_GT(plans_checked.load(), 0u);
  EXPECT_GT(injector.injected_count(), 0u);
}

TEST_F(WireStress, StarvedTierShedsArriveAsPlanFramesExactlyOnce) {
  // One shard with one solve slot and zero queue slots: while a solve runs,
  // every other key sheds INSIDE the tier. The wire budget is roomy, so
  // every shed is the tier's, and each must still come back as a normal
  // kShed plan frame, exactly once. Holding each solve a little makes sure
  // the other workers meet a busy slot.
  ShardedConfig config = tier_config(1);
  config.service.max_concurrent_solves = 1;
  config.service.max_queued_solves = 0;
  config.service.solve_hook = [](const std::string&, std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  ShardedPlanService tier(&catalog_, &est_, market_, config);
  PlanServerLoop server(&tier, {.workers = 6, .max_in_flight = 256});
  PlanClient client(&server, ClientMode::kRouted);

  constexpr std::size_t kSubmissions = 60;
  const std::vector<double> factors = {1.30, 1.45, 1.60, 1.75};
  std::vector<PlanRequest> requests;
  for (std::size_t i = 0; i < kSubmissions; ++i)
    requests.push_back(request(factors[i % factors.size()]));
  const std::vector<std::uint64_t> ids = client.submit_batch(requests);
  client.drain();

  const std::vector<ClientCompletion> done = client.harvest();
  ASSERT_EQ(done.size(), kSubmissions);
  std::set<std::uint64_t> seen;
  std::uint64_t sheds = 0;
  for (const ClientCompletion& completion : done) {
    EXPECT_TRUE(seen.insert(completion.request_id).second) << "completed twice";
    EXPECT_TRUE(completion.error.empty()) << completion.error;  // sheds are data
    if (completion.response.outcome == PlanOutcome::kShed) {
      EXPECT_EQ(completion.response.plan, nullptr);
      ++sheds;
    } else {
      EXPECT_NE(completion.response.plan, nullptr);
    }
  }
  for (const std::uint64_t id : ids) EXPECT_EQ(seen.count(id), 1u);
  EXPECT_GT(sheds, 0u);

  const WireTierStats stats = server.stats();
  EXPECT_EQ(stats.wire_sheds, 0u);
  EXPECT_EQ(stats.wire_errors, 0u);
  EXPECT_EQ(stats.sheds, sheds);
  EXPECT_EQ(stats.requests, kSubmissions);
  EXPECT_EQ(stats.hits + stats.solves + stats.dedup_joins + stats.sheds, stats.requests);
}

TEST_F(WireStress, RoutedAndSprayClientsAreAnsweredExactlyOnceAcrossEpochBumps) {
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 75;
  constexpr int kBumps = 4;
  const std::vector<double> factors = {1.30, 1.45, 1.60, 1.75};
  ShardedPlanService tier(&catalog_, &est_, market_, tier_config(4));
  // A budget that admits every submission at once: no wire-door sheds.
  PlanServerLoop server(&tier, {.workers = 4, .max_in_flight = kClients * kPerClient});

  std::vector<std::unique_ptr<PlanClient>> clients;
  for (std::size_t i = 0; i < kClients; ++i)
    clients.push_back(std::make_unique<PlanClient>(
        &server, i % 2 == 0 ? ClientMode::kRouted : ClientMode::kSpray));

  // The bumper paces itself on submission progress, so the bumps land in
  // the middle of the stream however fast the host runs it.
  std::atomic<std::size_t> submitted_total{0};
  std::atomic<std::size_t> live_clients{kClients};
  std::thread bumper([&] {
    for (int b = 0; b < kBumps; ++b) {
      const std::size_t mark = (b + 1) * kClients * kPerClient / (kBumps + 1);
      while (submitted_total.load() < mark && live_clients.load() > 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      tier.fanout().ingest({PriceUpdate{{0, 0}, {0.03 + 0.01 * b}}});
    }
  });

  // Each thread submits through its own client and harvests WHILE it
  // submits — exactly-once must hold against partial harvests, not just a
  // final one.
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      PlanClient& client = *clients[t];
      std::set<std::uint64_t> submitted;
      std::set<std::uint64_t> answered;
      const auto collect = [&](std::size_t max) {
        for (const ClientCompletion& completion : client.harvest(max)) {
          if (!answered.insert(completion.request_id).second) violations.fetch_add(1);
          if (!completion.error.empty() || completion.response.plan == nullptr)
            violations.fetch_add(1);
        }
      };
      for (std::size_t i = 0; i < kPerClient; ++i) {
        submitted.insert(client.submit(request(factors[(t + i) % factors.size()])));
        submitted_total.fetch_add(1);
        if (i % 8 == 7) collect(8);
      }
      client.drain();
      collect(0);
      if (answered != submitted || submitted.size() != kPerClient) violations.fetch_add(1);
      live_clients.fetch_sub(1);
    });
  }
  for (std::thread& thread : threads) thread.join();
  bumper.join();

  EXPECT_EQ(violations.load(), 0);
  const WireTierStats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kPerClient);
  EXPECT_EQ(stats.epoch, 1u + kBumps);
  EXPECT_EQ(stats.wire_sheds, 0u);
  EXPECT_EQ(stats.wire_errors, 0u);
  // One solve per (canonical request, epoch) tier-wide, across sprayed
  // landings and epoch bumps racing the submissions.
  EXPECT_EQ(stats.duplicate_solves, 0u);
}

}  // namespace
}  // namespace sompi::net
