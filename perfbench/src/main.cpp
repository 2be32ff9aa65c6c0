// perfbench — the end-to-end plan-serving benchmark.
//
//   perfbench --workload <cold_solve|warm_hit|epoch_churn> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Requests and price ticks are generated from --seed and driven through a
// router-aware PlanClient into a PlanServerLoop over a two-shard
// ShardedPlanService at the default OptimizerConfig (see env.h, loops.h).
//
// --trace 0 sets the deployment up several times (setup_s is the median),
// runs the workload for --seconds with tracing off, checks every served
// plan against the cold oracle, and reports the end-to-end metrics.
//
// --trace 1 runs the workload three times on fresh deployments, untraced,
// traced and untraced, a third of the seconds each; then it times each layer
// on the traced deployment (ledger.h) and replays the deterministic census
// twice, and reports the per-layer metrics. With --out-dir it writes the
// spans there and keeps the census of each (workload, seed), failing if a
// later run given the same directory disagrees.
//
// Human-readable lines come first; the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every check passed.
#include <sys/resource.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "env.h"
#include "ledger.h"
#include "loops.h"
#include "trace.h"
#include "verify.h"

using namespace perfbench;

namespace {

constexpr std::size_t kSetupRepeats = 3;
/// Spans written per name; the rest stay in memory only.
constexpr std::size_t kWrittenSpansPerName = 100000;

struct Args {
  Workload workload = Workload::kColdSolve;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    errno = 0;
    if (flag == "--workload") {
      const std::optional<Workload> w = parse_workload(value);
      if (!w) return std::nullopt;
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = errno == 0 && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = errno == 0 && *end == '\0' && args.seconds > 0.0 && args.seconds <= 120.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace)
    return std::nullopt;
  return args;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

unsigned oracle_threads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

void print_metrics(const char* title, const Metrics& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-30s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const Metrics& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

/// One timed phase with its output checks.
struct CheckedRun {
  RunLog log;
  OracleResult oracle;
  std::uint64_t failed = 0;  ///< sheds + wire errors + missing + divergent plans
  double peak_rss_mb = 0.0;  ///< at the end of the timed phase
};

CheckedRun checked_run(const Args& args, Deployment& d, Tracer* tracer) {
  CheckedRun run;
  run.log = run_workload(args.workload, d, args.seed, args.seconds, tracer);
  run.peak_rss_mb = peak_rss_mb();
  run.oracle = check_against_oracle(d.tier->shard(0), run.log, oracle_threads());
  const RunLog& log = run.log;
  run.failed = log.sheds + log.wire_errors + log.missing + log.mismatched + run.oracle.divergent;
  std::printf("%s phase (%s): %llu attempted, %llu answered with a plan in %.3f s\n",
              tracer ? "traced" : "untraced", workload_name(args.workload),
              static_cast<unsigned long long>(log.attempted),
              static_cast<unsigned long long>(log.planned), log.phase_s);
  for (const double q : {0.5, 0.99}) {
    const Quantile quantile = latency_quantile(log, q);
    const auto beyond = quantile.samples - static_cast<std::uint64_t>(std::ceil(
                                               q * static_cast<double>(quantile.samples)));
    std::printf("  p%.0f: %.3f ms, %s %llu samples, %llu beyond it%s\n", 100.0 * q,
                1e3 * quantile.seconds,
                quantile.slices > 0 ? "median over time slices of at least" : "over all",
                static_cast<unsigned long long>(quantile.samples),
                static_cast<unsigned long long>(beyond), beyond >= 10 ? "" : " (WARN: < 10)");
  }
  std::printf("  sheds %llu, wire errors %llu, missing %llu, fingerprint changes %llu\n",
              static_cast<unsigned long long>(log.sheds),
              static_cast<unsigned long long>(log.wire_errors),
              static_cast<unsigned long long>(log.missing),
              static_cast<unsigned long long>(log.mismatched));
  std::printf("  oracle: %llu (key, epoch) pairs re-solved cold, %llu diverged — %s\n",
              static_cast<unsigned long long>(run.oracle.checked),
              static_cast<unsigned long long>(run.oracle.divergent),
              run.oracle.divergent == 0 ? "PASS" : "FAIL");
  if (args.workload == Workload::kEpochChurn) {
    std::printf("  open loop: %zu epochs seen, generator lag p99 %.3f ms, %llu in flight at "
                "the end of the schedule\n",
                log.markets.size(), 1e3 * percentile(log.lag_s, 0.99),
                static_cast<unsigned long long>(log.inflight_at_end));
  }
  const sompi::net::WireTierStats wire = d.server->stats();
  std::printf("  tier: %llu requests, %llu hits, %llu solves, %llu joins, %llu sheds, "
              "%llu forwarded, %llu re-plans\n",
              static_cast<unsigned long long>(wire.requests),
              static_cast<unsigned long long>(wire.hits),
              static_cast<unsigned long long>(wire.solves),
              static_cast<unsigned long long>(wire.dedup_joins),
              static_cast<unsigned long long>(wire.sheds),
              static_cast<unsigned long long>(wire.forwarded),
              static_cast<unsigned long long>(wire.replan_count));
  return run;
}

/// The plans a run's quality is judged on: warm_hit's pre-filled hot set,
/// otherwise the run's quality sample (RunLog::quality_sample).
PlanQuality quality_of(Workload workload, const RunLog& log, const Deployment& d) {
  std::vector<std::shared_ptr<const sompi::Plan>> sample;
  if (workload == Workload::kWarmHit) {
    sample = d.prefilled;
  } else {
    for (const auto& [key, plan] : log.quality_sample) sample.push_back(plan);
  }
  return plan_quality(d.world->catalog, sample);
}


Metrics end_to_end(const Args& args, const CheckedRun& run, const Deployment& d,
                   const std::vector<double>& setup_s) {
  const RunLog& log = run.log;
  const PlanQuality quality = quality_of(args.workload, log, d);
  std::printf("plan quality over %zu plans: deadline miss rate %.6f; error rate %.6f\n",
              quality.plans, quality.deadline_miss_rate,
              ratio(static_cast<double>(run.failed), static_cast<double>(log.attempted)));
  return {
      {"latency_p50_ms", 1e3 * latency_quantile(log, 0.50).seconds, "ms"},
      {"latency_p99_ms", 1e3 * latency_quantile(log, 0.99).seconds, "ms"},
      {"throughput_rps", throughput(log), "req/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", run.peak_rss_mb, "MiB"},
      {"plan_cost_usd", quality.plan_cost_usd, "USD"},
      {"replay_cost_usd", quality.replay_cost_usd, "USD"},
  };
}

int run_untraced(const Args& args) {
  std::vector<double> setup_s;
  std::optional<Deployment> d;
  const std::uint64_t feed_steps = churn_feed_steps(args.seconds);
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    d.reset();
    const Clock::time_point t0 = Clock::now();
    d.emplace(deploy(args.workload, args.seed, feed_steps));
    setup_s.push_back(seconds_since(t0));
  }
  const CheckedRun run = checked_run(args, *d, nullptr);
  const Metrics metrics = end_to_end(args, run, *d, setup_s);
  print_metrics("end-to-end metrics:", metrics);
  const bool correct = run.failed == 0;
  print_result(correct, run.log.attempted, run.failed, metrics);
  return correct ? 0 : 1;
}

/// The census of (workload, seed) as "name value" lines.
std::string census_text(const Metrics& census) {
  std::ostringstream out;
  out.precision(17);
  for (const Metric& m : census) out << m.name << ' ' << m.value << '\n';
  return out.str();
}

/// Compares the census with the one an earlier run of the same build kept
/// in `out_dir`, or keeps it there. Returns false on a disagreement.
bool census_matches_record(const Args& args, const Metrics& census) {
  if (args.out_dir.empty()) return true;
  const std::string path = args.out_dir + "/census-" + workload_name(args.workload) + "-" +
                           std::to_string(args.seed) + ".txt";
  const std::string text = census_text(census);
  std::ifstream in(path);
  if (in) {
    std::stringstream kept;
    kept << in.rdbuf();
    return kept.str() == text;
  }
  std::ofstream(path) << text;
  return true;
}

int run_traced(const Args& args) {
  // Untraced, traced, untraced: a third of the seconds each, on fresh
  // deployments, so drift and warm-up in the process weigh on both sides of
  // the tracing-overhead comparison.
  Args phase = args;
  phase.seconds = args.seconds / 3.0;
  const std::uint64_t feed_steps = churn_feed_steps(phase.seconds);
  const auto untraced_phase = [&] {
    Deployment d = deploy(args.workload, args.seed, feed_steps);
    return checked_run(phase, d, nullptr);
  };
  const CheckedRun before = untraced_phase();
  Deployment d = deploy(args.workload, args.seed, feed_steps);
  Tracer tracer;
  const CheckedRun traced = checked_run(phase, d, &tracer);
  const CheckedRun after = untraced_phase();
  const double untraced_p50_s = (latency_quantile(before.log, 0.5).seconds +
                                 latency_quantile(after.log, 0.5).seconds) /
                                2.0;
  LedgerResult ledger = layer_ledger(args.workload, args.seed, d, traced.log, untraced_p50_s,
                                     tracer);
  const CensusResult census_result = census(args.workload, args.seed);
  const bool recorded = census_matches_record(args, census_result.metrics);

  for (const std::string& note : ledger.notes) std::printf("%s\n", note.c_str());
  std::printf("%s: census replayed twice in this run, counters %s\n",
              census_result.repeatable ? "PASS" : "FAIL",
              census_result.repeatable ? "identical" : "differ");
  if (!args.out_dir.empty())
    std::printf("%s: census %s the one kept by an earlier run of this build\n",
                recorded ? "PASS" : "FAIL", recorded ? "matches (or now is)" : "differs from");

  const std::uint64_t attempted =
      before.log.attempted + traced.log.attempted + after.log.attempted;
  const std::uint64_t failed = before.failed + traced.failed + after.failed;
  Metrics metrics = ledger.metrics;
  metrics.insert(metrics.end(), census_result.metrics.begin(), census_result.metrics.end());
  metrics.push_back({"error_rate",
                     ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                     "ratio"});
  metrics.push_back(
      {"deadline_miss_rate", quality_of(args.workload, traced.log, d).deadline_miss_rate,
       "ratio"});
  print_metrics("per-layer metrics:", metrics);
  if (!args.out_dir.empty()) {
    const std::string path =
        args.out_dir + "/trace-" + workload_name(args.workload) + ".jsonl";
    std::printf("trace: %zu spans, written to %s%s\n", tracer.size(), path.c_str(),
                tracer.write(path, kWrittenSpansPerName) ? "" : " (FAILED)");
  }
  const bool correct = failed == 0 && ledger.ok && census_result.repeatable && recorded;
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <cold_solve|warm_hit|epoch_churn> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  try {
    if (!args->out_dir.empty()) std::filesystem::create_directories(args->out_dir);
    return args->trace ? run_traced(*args) : run_untraced(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
