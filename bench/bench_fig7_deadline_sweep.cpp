// Figure 7 — monetary cost as the deadline loosens, for BT (comp),
// FT (comm) and BTIO (IO). The x axis is how much larger the deadline is
// than Baseline Time (the paper sweeps 0 to +0.5). The paper's shape: cost
// falls in steps as cheaper instance types become deadline-eligible
// (cc2.8xlarge → c3.xlarge → m1.medium → m1.small for BT), saturating at
// ~70% off for BT, ~50% for FT (which maxes out by +0.1), and >60% for
// BTIO with the m1.medium → m1.small switch near +0.1.
#include "bench_util.h"

using namespace sompi;

int main() {
  bench::banner("Figure 7", "cost vs deadline requirement (BT, FT, BTIO)");

  const Experiment env;
  const ExecTimeEstimator& est = env.estimator();
  const SompiOptimizer opt(&env.catalog(), &est, env.sompi_config());

  for (const char* name : {"BT", "FT", "BTIO"}) {
    const AppProfile app = paper_profile(name);
    const double base_t = env.baseline_time(app);

    Table t(std::string(name) + " — SOMPI cost vs deadline (normalized to Baseline)");
    t.header({"deadline-base", "norm cost", "±std", "miss", "spot types selected"});
    for (double extra = 0.0; extra <= 0.501; extra += 0.05) {
      const double deadline = base_t * (1.0 + extra);

      // Monte-Carlo cost of the adaptive run at this deadline.
      MonteCarloConfig mc;
      mc.runs = env.options().runs;
      mc.reserve_h = 96.0;
      mc.seed = env.options().seed ^ 0xF16;
      const MonteCarloRunner runner(&env.market(), {}, mc);
      const AdaptiveEngine engine(&env.catalog(), &est, env.adaptive_config());
      const MonteCarloStats stats = runner.run_adaptive(engine, app, deadline);

      // Which instance types a from-scratch plan picks at this deadline —
      // the paper's "switch point" annotation (arrows in Figure 7).
      const Plan plan = opt.optimize(app, env.market(), deadline);
      std::string types;
      for (const auto& g : plan.groups) {
        const std::string tn = env.catalog().type(g.spec.type_index).name;
        if (types.find(tn) == std::string::npos) types += (types.empty() ? "" : "+") + tn;
      }
      if (types.empty()) types = "(on-demand only)";

      t.row({std::string("+").append(Table::num(extra, 2)),
             Table::num(stats.cost.mean / env.baseline_cost(app), 3),
             Table::num(stats.cost.stddev / env.baseline_cost(app), 3),
             Table::num(100.0 * stats.deadline_miss_rate, 0) + "%", types});
    }
    std::printf("%s\n", t.render().c_str());
  }
  bench::note("expected shape: cost decreases (weakly) with the deadline; the selected spot "
              "type walks down the price ladder at the paper's switch points; FT saturates "
              "early (only cc2.8xlarge is ever viable).");
  return 0;
}
