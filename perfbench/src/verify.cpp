#include "verify.h"

#include <atomic>
#include <thread>

#include "sim/monte_carlo.h"
#include "trace/market.h"

namespace perfbench {

using namespace sompi;

namespace {

constexpr double kReplayMarketDays = 21.0;
constexpr std::uint64_t kReplayMarketSeed = 2014;
constexpr std::uint64_t kReplaySeed = 0xB1D5;
constexpr std::size_t kReplayRuns = 500;
/// Room after a replay start: covers the longest deadline the generator
/// issues (LAMMPS-32 at 3 × its ~34 h baseline).
constexpr double kReplayReserveH = 120.0;

}  // namespace

OracleResult check_against_oracle(const PlanService& oracle, const RunLog& log,
                                  unsigned threads) {
  struct Job {
    std::size_t key;
    std::uint64_t epoch;
    const std::string* fingerprint;
  };
  std::vector<Job> jobs;
  for (const auto& [pair, fingerprint] : log.served)
    jobs.push_back(Job{pair.first, pair.second, &fingerprint});

  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> divergent{0};
  const auto work = [&] {
    for (std::size_t i = next++; i < jobs.size(); i = next++) {
      const Job& job = jobs[i];
      const auto market = log.markets.find(job.epoch);
      if (market == log.markets.end()) {
        ++divergent;
        continue;
      }
      const Plan plan = oracle.solve(canonicalized(log.keys[job.key]), *market->second);
      if (plan_fingerprint(plan) != *job.fingerprint) ++divergent;
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(1u, threads); ++t) pool.emplace_back(work);
  work();
  for (std::thread& thread : pool) thread.join();
  return OracleResult{jobs.size(), divergent.load()};
}

PlanQuality plan_quality(const Catalog& catalog,
                         const std::vector<std::shared_ptr<const Plan>>& sample) {
  const Market replay_market = generate_market(catalog, paper_market_profile(catalog),
                                               kReplayMarketDays, 0.25, kReplayMarketSeed);
  MonteCarloConfig config;
  config.runs = kReplayRuns;
  config.seed = kReplaySeed;
  config.reserve_h = kReplayReserveH;
  const MonteCarloRunner runner(&replay_market, {}, config);

  PlanQuality quality;
  for (const std::shared_ptr<const Plan>& plan : sample) {
    const MonteCarloStats stats = runner.run_plan(*plan, plan->deadline_h);
    quality.plan_cost_usd += plan->expected.cost_usd;
    quality.replay_cost_usd += stats.cost.mean;
    quality.deadline_miss_rate += stats.deadline_miss_rate;
    ++quality.plans;
  }
  if (quality.plans > 0) {
    const auto n = static_cast<double>(quality.plans);
    quality.plan_cost_usd /= n;
    quality.replay_cost_usd /= n;
    quality.deadline_miss_rate /= n;
  }
  return quality;
}

}  // namespace perfbench
