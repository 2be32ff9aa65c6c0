#include "sim/live.h"

#include <gtest/gtest.h>

#include "apps/lu.h"

namespace sompi {
namespace {

class LiveTest : public ::testing::Test {
 protected:
  Market make_market(std::vector<std::vector<double>> group_prices) {
    std::vector<SpotTrace> traces;
    for (std::size_t i = 0; i < catalog_.types().size() * catalog_.zones().size(); ++i) {
      if (i < group_prices.size() && !group_prices[i].empty()) {
        traces.emplace_back(0.25, group_prices[i]);
      } else {
        traces.emplace_back(0.25, std::vector<double>(400, 0.02));
      }
    }
    return Market(&catalog_, std::move(traces));
  }

  static Plan live_plan() {
    Plan plan;
    plan.app = "LU";
    plan.step_hours = 0.25;
    plan.od.t_h = 8.0;
    plan.od.instances = 2;
    plan.od.rate_usd_h = 4.0;
    plan.od.feasible = true;
    return plan;
  }

  static GroupPlan group(std::size_t type, std::size_t zone, int t_steps, int f_steps,
                         double bid) {
    GroupPlan g;
    g.spec = {type, zone};
    g.name = std::string("g").append(std::to_string(type)).append(std::to_string(zone));
    g.instances = 2;
    g.t_steps = t_steps;
    g.o_steps = 0.1;
    g.r_steps = 0.2;
    g.bid_usd = bid;
    g.f_steps = f_steps;
    return g;
  }

  LiveExecutor::AppRunner lu_runner(int iterations) {
    cfg_.nx = 16;
    cfg_.ny = 16;
    cfg_.iterations = iterations;
    return [this](mpi::Comm& comm, CoordinatedCheckpointing* ck, int checkpoint_every) {
      apps::LuConfig cfg = cfg_;
      cfg.checkpoint_every = checkpoint_every;
      return apps::lu_run(comm, cfg, ck);
    };
  }

  Catalog catalog_ = paper_catalog();
  apps::LuConfig cfg_;
};

TEST_F(LiveTest, CalmMarketCompletesOnSpotWithCorrectResult) {
  const Market market = make_market({});
  const LiveExecutor exec(&market);
  Plan plan = live_plan();
  plan.groups.push_back(group(0, 0, /*T=*/20, /*F=*/5, /*bid=*/0.1));

  MemoryStore store;
  const LiveRunResult r =
      exec.execute(plan, /*start_h=*/0.0, /*world=*/4, /*iters=*/40, lu_runner(40), store);
  EXPECT_TRUE(r.completed_on_spot);
  EXPECT_FALSE(r.recovered_on_demand);
  EXPECT_NEAR(r.checksum, apps::lu_reference(cfg_), 1e-9);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_TRUE(r.groups[0].completed);
}

TEST_F(LiveTest, KilledGroupRecoversOnDemandFromCheckpoint) {
  // Group (0,0): low for 10 steps then spiked → killed halfway.
  std::vector<double> prices(10, 0.02);
  prices.resize(400, 9.0);
  const Market market = make_market({{prices}});
  const LiveExecutor exec(&market);
  Plan plan = live_plan();
  plan.groups.push_back(group(0, 0, /*T=*/20, /*F=*/4, /*bid=*/0.1));

  MemoryStore store;
  const LiveRunResult r = exec.execute(plan, 0.0, 4, 40, lu_runner(40), store);
  EXPECT_FALSE(r.completed_on_spot);
  EXPECT_TRUE(r.recovered_on_demand);
  ASSERT_EQ(r.groups.size(), 1u);
  EXPECT_TRUE(r.groups[0].killed);
  EXPECT_GT(r.groups[0].checkpoints_saved, 0);
  // The recovered result is numerically identical to an undisturbed run.
  EXPECT_NEAR(r.checksum, apps::lu_reference(cfg_), 1e-9);
  // Recovery resumed from a checkpoint rather than redoing all 40
  // iterations: total executed iterations stay below kill+full.
  EXPECT_LT(r.total_iterations_run, 40);
}

TEST_F(LiveTest, SecondReplicaWinsWhenFirstDies) {
  // Group (0,0) dies immediately; group (0,1) is calm.
  const Market market = make_market({std::vector<double>(400, 9.0)});
  const LiveExecutor exec(&market);
  Plan plan = live_plan();
  plan.groups.push_back(group(0, 0, 20, 5, 0.1));
  plan.groups.push_back(group(0, 1, 20, 5, 0.1));

  MemoryStore store;
  const LiveRunResult r = exec.execute(plan, 0.0, 4, 40, lu_runner(40), store);
  EXPECT_TRUE(r.completed_on_spot);
  ASSERT_EQ(r.groups.size(), 2u);
  EXPECT_TRUE(r.groups[0].killed);
  EXPECT_TRUE(r.groups[1].completed);
  EXPECT_NEAR(r.checksum, apps::lu_reference(cfg_), 1e-9);
}

TEST_F(LiveTest, RequiresSpotPlan) {
  const Market market = make_market({});
  const LiveExecutor exec(&market);
  MemoryStore store;
  EXPECT_THROW(exec.execute(live_plan(), 0.0, 2, 10, lu_runner(10), store),
               PreconditionError);
}

}  // namespace
}  // namespace sompi
