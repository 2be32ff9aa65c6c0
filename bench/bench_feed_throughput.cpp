// Feed-pipeline ingestion benchmark (DESIGN.md §10 "Feed pipeline").
// Streams a replayed market tail through the FeedPipeline two ways — a
// synchronous single-thread pass and a 4-producer run through the bounded
// MPSC queue — and reports sustained ticks/s, the epoch-publication latency
// percentiles, and the deterministic pipeline counters behind them.
//
// Every run cross-checks the determinism contract before reporting: the
// queued multi-producer pass must land the exact commit digest of the
// synchronous pass — a throughput number from a wrong price matrix is a bug,
// not a result.
//
//   bench_feed_throughput [--json <path>] [--check <baseline.json>]
//                         [--min-rate <ticks_per_sec>]
//
// --check gates the *deterministic counters* (ticks per pass, committed
// steps, epochs published, gap fills) against a committed baseline exactly —
// they are pure functions of the replayed trace and the feed config, so the
// gate is exact on any runner. --min-rate additionally fails the run when
// the queued pass sustains fewer ticks/s than the floor (the acceptance
// floor is 100000; the margin on a laptop is ~50x, so the gate stays
// meaningful even on a loaded CI box).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "feed/pipeline.h"
#include "feed/tick_source.h"
#include "trace/market.h"

using namespace sompi;
using feed::FeedConfig;
using feed::FeedPipeline;
using feed::FeedStats;
using feed::ReplayTickSource;

namespace {

struct PassResult {
  double seconds = 0.0;
  FeedStats stats;
  std::uint64_t digest = 0;
  std::size_t queue_max_depth = 0;
  std::vector<double> publish_ms;  // per-epoch publication latencies
};

FeedConfig bench_config() {
  FeedConfig cfg;
  cfg.publish_every = 96;  // one publication per simulated day
  cfg.queue_capacity = 1024;
  return cfg;
}

PassResult run_sync(const Market& full, std::size_t visible) {
  MarketBoard board(full.window(0, visible));
  FeedPipeline pipe(&board, bench_config());
  const std::size_t len = full.trace({0, 0}).steps();
  ReplayTickSource source(&full, {}, visible, len - visible);

  const auto t0 = std::chrono::steady_clock::now();
  pipe.ingest(source);
  pipe.flush();
  PassResult r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.stats = pipe.stats();
  r.digest = pipe.commit_digest();
  for (const feed::PublishRecord& p : pipe.publish_log())
    r.publish_ms.push_back(p.publish_seconds * 1e3);
  return r;
}

PassResult run_mpsc(const Market& full, std::size_t visible, std::size_t producers) {
  MarketBoard board(full.window(0, visible));
  FeedPipeline pipe(&board, bench_config());
  const std::size_t len = full.trace({0, 0}).steps();
  const std::vector<CircleGroupSpec> all = full.catalog().all_groups();

  const auto t0 = std::chrono::steady_clock::now();
  pipe.start();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      std::vector<CircleGroupSpec> mine;
      for (std::size_t g = p; g < all.size(); g += producers) mine.push_back(all[g]);
      ReplayTickSource shard(&full, mine, visible, len - visible);
      pipe.pump(shard);
    });
  }
  for (std::thread& t : threads) t.join();
  pipe.stop();
  pipe.flush();
  PassResult r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  r.stats = pipe.stats();
  r.digest = pipe.commit_digest();
  r.queue_max_depth = pipe.queue_stats().max_depth;
  for (const feed::PublishRecord& p : pipe.publish_log())
    r.publish_ms.push_back(p.publish_seconds * 1e3);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::json_path_from_args(argc, argv);
  const std::string check_path = bench::arg_value(argc, argv, "--check");
  const std::string min_rate_arg = bench::arg_value(argc, argv, "--min-rate");
  const double min_rate = min_rate_arg.empty() ? 0.0 : std::strtod(min_rate_arg.c_str(), nullptr);

  bench::banner("feed_throughput",
                "Streaming tick ingestion: sync vs MPSC queue");

  // 60 days of 15-minute ticks across the 15 paper circle groups: the feed
  // replays everything past the 2-day primed prefix, ~83k ticks per pass.
  const Catalog catalog = paper_catalog();
  const Market full = generate_market(catalog, paper_market_profile(catalog),
                                      /*days=*/60.0, /*step_hours=*/0.25, /*seed=*/101);
  const std::size_t len = full.trace({0, 0}).steps();
  const std::size_t visible = 192;
  const std::uint64_t ticks_per_pass =
      static_cast<std::uint64_t>(len - visible) * catalog.all_groups().size();

  struct Case {
    std::string name;
    std::function<PassResult()> run;
  };
  const std::vector<Case> cases = {
      {"sync", [&] { return run_sync(full, visible); }},
      {"mpsc/p4", [&] { return run_mpsc(full, visible, 4); }},
  };

  constexpr std::size_t kIters = 3;
  std::vector<bench::JsonResult> results;
  bool ok = true;
  std::uint64_t sync_digest = 0;
  double mpsc_rate = 0.0;

  std::printf("%-18s %12s %12s %12s %12s %10s %10s\n", "case", "ticks/s", "mean_ms",
              "epochs", "pub_p99_ms", "gaps", "max_depth");
  for (const Case& c : cases) {
    std::vector<double> pass_ms;
    std::vector<double> publish_ms;
    PassResult last;
    for (std::size_t i = 0; i < kIters; ++i) {
      last = c.run();
      pass_ms.push_back(last.seconds * 1e3);
      publish_ms.insert(publish_ms.end(), last.publish_ms.begin(), last.publish_ms.end());
    }
    double mean_ms = 0.0;
    for (double s : pass_ms) mean_ms += s;
    mean_ms /= static_cast<double>(pass_ms.size());
    const double rate = static_cast<double>(ticks_per_pass) / (mean_ms / 1e3);
    const double pass_p50 = bench::percentile_nearest_rank(pass_ms, 0.50);
    const double pass_p99 = bench::percentile_nearest_rank(pass_ms, 0.99);
    const double pub_p50 = bench::percentile_nearest_rank(publish_ms, 0.50);
    const double pub_p99 = bench::percentile_nearest_rank(publish_ms, 0.99);

    if (last.stats.ticks_ingested != ticks_per_pass) {
      std::fprintf(stderr, "FAIL %s: ingested %llu of %llu ticks\n", c.name.c_str(),
                   static_cast<unsigned long long>(last.stats.ticks_ingested),
                   static_cast<unsigned long long>(ticks_per_pass));
      ok = false;
    }
    if (c.name == "sync") sync_digest = last.digest;
    if (c.name == "mpsc/p4") {
      mpsc_rate = rate;
      if (last.digest != sync_digest) {
        std::fprintf(stderr,
                     "FAIL mpsc/p4: commit digest %016llx differs from sync %016llx\n",
                     static_cast<unsigned long long>(last.digest),
                     static_cast<unsigned long long>(sync_digest));
        ok = false;
      }
      if (last.queue_max_depth > bench_config().queue_capacity) {
        std::fprintf(stderr, "FAIL mpsc/p4: queue depth %zu exceeded capacity\n",
                     last.queue_max_depth);
        ok = false;
      }
    }

    std::printf("%-18s %12.0f %12.2f %12llu %12.3f %10llu %10zu\n", c.name.c_str(), rate,
                mean_ms, static_cast<unsigned long long>(last.stats.epochs_published),
                pub_p99, static_cast<unsigned long long>(last.stats.gaps_filled),
                last.queue_max_depth);

    results.push_back(
        {c.name,
         kIters,
         mean_ms,
         pass_p50,
         pass_p99,
         {{"ticks_per_pass", static_cast<double>(ticks_per_pass)},
          {"ticks_per_sec", rate},
          {"committed_steps", static_cast<double>(last.stats.committed_steps)},
          {"epochs_published", static_cast<double>(last.stats.epochs_published)},
          {"gaps_filled", static_cast<double>(last.stats.gaps_filled)},
          {"publish_p50_ms", pub_p50},
          {"publish_p99_ms", pub_p99},
          {"queue_max_depth", static_cast<double>(last.queue_max_depth)}}});
  }

  if (min_rate > 0.0 && mpsc_rate < min_rate) {
    std::fprintf(stderr, "FAIL: mpsc/p4 sustained %.0f ticks/s, below the %.0f floor\n",
                 mpsc_rate, min_rate);
    ok = false;
  }

  if (!check_path.empty()) {
    const std::optional<std::string> baseline = bench::read_baseline(check_path);
    if (!baseline) return 2;
    // Gate the deterministic counters exactly: they are pure functions of
    // the replayed trace and the feed config (timing fields are not gated —
    // wall clock on a shared runner is noise).
    const auto gated = [](const std::string& key) {
      return key == "ticks_per_pass" || key == "committed_steps" ||
             key == "epochs_published" || key == "gaps_filled";
    };
    if (!bench::counters_match(results, *baseline, check_path, gated, 0)) ok = false;
    if (ok) bench::note("deterministic-counter check passed against " + check_path);
  }

  if (!json_path.empty()) bench::write_json(json_path, results);
  return ok ? 0 : 1;
}
