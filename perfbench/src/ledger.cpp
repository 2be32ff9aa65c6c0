#include "ledger.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "core/ckpt_interval.h"
#include "core/cost_model.h"
#include "core/ondemand.h"
#include "core/optimizer.h"
#include "core/setup_builder.h"
#include "net/wire.h"

namespace perfbench {

using namespace sompi;

namespace {

constexpr std::size_t kCodecRounds = 50;
constexpr std::size_t kProbeRounds = 20;
constexpr std::size_t kIngestPublications = 32;
constexpr std::size_t kFeedPublications = 32;
/// The on-demand pick, the setup and optimize_over, timed as separate calls,
/// must add up to the timed cold solve of the same keys within this share.
constexpr double kAccountingTolerance = 0.10;
constexpr std::size_t kCensusColdRequests = 64;
constexpr std::size_t kCensusWarmRequests = 640;
constexpr std::size_t kCensusEpochs = 4;

double to_us(double seconds) { return seconds * 1e6; }
double to_ms(double seconds) { return seconds * 1e3; }

std::string format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

/// A key of the workload with the plan served for it.
struct Sampled {
  std::size_t key = 0;
  std::shared_ptr<const Plan> plan;
};

/// cold_solve: the first kCells requests (one per cell); otherwise the
/// deployment's fixed key set with its pre-filled plans.
std::vector<Sampled> sample_of(Workload workload, const Deployment& d, const RunLog& log) {
  std::vector<Sampled> out;
  if (workload == Workload::kColdSolve) {
    for (const auto& [key, plan] : log.quality_sample)
      if (key < kCells) out.push_back(Sampled{key, plan});
  } else {
    for (std::size_t i = 0; i < d.prefilled.size(); ++i)
      out.push_back(Sampled{i, d.prefilled[i]});
  }
  return out;
}

void net_codec(const RunLog& log, const std::vector<Sampled>& sample, Tracer& tracer,
               LedgerResult& result) {
  double response_bytes = 0.0;
  std::uint64_t id = 1;
  bool decoded_all = true;
  for (std::size_t round = 0; round < kCodecRounds; ++round) {
    for (const Sampled& s : sample) {
      {
        const ScopedSpan span(&tracer, "net.request_codec", kNoParent, id);
        const std::string frame = net::encode_frame(net::MsgType::kPlanRequest, id,
                                                    net::encode_plan_request(log.keys[s.key]));
        net::FrameDecoder decoder;
        decoder.feed(frame);
        const std::optional<net::WireFrame> got = decoder.next();
        PlanRequest decoded;
        decoded_all = decoded_all && got && net::decode_plan_request(got->payload, &decoded);
      }
      {
        const PlanResponse response{PlanOutcome::kHit, 1, s.plan};
        const ScopedSpan span(&tracer, "net.response_codec", kNoParent, id);
        const std::string frame = net::encode_frame(net::MsgType::kPlanResponse, id,
                                                    net::encode_plan_response(response));
        net::FrameDecoder decoder;
        decoder.feed(frame);
        const std::optional<net::WireFrame> got = decoder.next();
        PlanResponse decoded;
        decoded_all = decoded_all && got && net::decode_plan_response(got->payload, &decoded);
        if (round == 0) response_bytes += static_cast<double>(frame.size());
      }
      ++id;
    }
  }
  if (!decoded_all) {
    result.ok = false;
    result.notes.push_back("FAIL: a codec round trip did not decode");
  }
  result.metrics.push_back(
      {"net.request_codec_us", to_us(median(tracer.durations("net.request_codec"))), "us"});
  result.metrics.push_back(
      {"net.response_codec_us", to_us(median(tracer.durations("net.response_codec"))), "us"});
  result.metrics.push_back(
      {"net.response_bytes", ratio(response_bytes, static_cast<double>(sample.size())), "bytes"});
}

void service_probes(const RunLog& log, const std::vector<Sampled>& sample, Deployment& d,
                    Tracer& tracer, LedgerResult& result) {
  std::vector<std::size_t> home(sample.size());
  for (std::size_t round = 0; round < kCodecRounds; ++round) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      std::string key;
      {
        const ScopedSpan span(&tracer, "service.canonicalize");
        key = canonical_key(canonicalized(log.keys[sample[i].key]));
      }
      const ScopedSpan span(&tracer, "sharded.route");
      home[i] = d.tier->home_shard_for_key(key);
    }
  }

  // Every sampled key cached at the current epoch, then paired probes: the
  // blocking wire round trip and the in-process hit it wraps.
  for (const Sampled& s : sample) (void)d.client->plan(log.keys[s.key]);
  std::vector<double> transport;
  std::uint64_t misses = 0;
  for (std::size_t round = 0; round < kProbeRounds; ++round) {
    for (std::size_t i = 0; i < sample.size(); ++i) {
      const PlanRequest& request = log.keys[sample[i].key];
      const Clock::time_point t0 = Clock::now();
      const PlanResponse wire = d.client->plan(request);
      const Clock::time_point t1 = Clock::now();
      const std::optional<PlanResponse> hit = d.tier->try_serve_hit(home[i], request);
      const Clock::time_point t2 = Clock::now();
      tracer.record("net.round_trip", t0, t1);
      tracer.record("service.cache_probe", t1, t2);
      if (!hit || wire.outcome != PlanOutcome::kHit) ++misses;
      transport.push_back(seconds_between(t0, t1) - seconds_between(t1, t2));
    }
  }
  if (misses > 0) {
    result.ok = false;
    result.notes.push_back(
        format("FAIL: %.0f warm probes missed the cache", static_cast<double>(misses)));
  }
  result.metrics.push_back({"net.transport_us", to_us(median(transport)), "us"});
  result.metrics.push_back(
      {"service.canonicalize_us", to_us(median(tracer.durations("service.canonicalize"))), "us"});
  result.metrics.push_back(
      {"service.cache_probe_us", to_us(median(tracer.durations("service.cache_probe"))), "us"});
  result.metrics.push_back(
      {"sharded.route_us", to_us(median(tracer.durations("sharded.route"))), "us"});
}

/// BoardFanout::ingest of one epoch_churn-sized publication, and the feed's
/// offer path, each on a scratch tier over the same market.
void publication_ledger(const Deployment& d, std::uint64_t seed, Tracer& tracer,
                        LedgerResult& result) {
  const World& world = *d.world;
  const std::uint64_t base = world.market.trace(CircleGroupSpec{0, 0}).steps();
  const std::vector<CircleGroupSpec> hot = hot_groups(world.catalog);
  {
    ShardedPlanService scratch(&world.catalog, &world.estimator, world.market, tier_config());
    const std::vector<feed::Tick> ticks =
        hot_ticks(world.catalog, base, kIngestPublications * kChurnPublishEvery,
                  derive_seed(seed, kTickStream));
    for (std::size_t p = 0; p < kIngestPublications; ++p) {
      std::vector<PriceUpdate> updates;
      for (const CircleGroupSpec& group : hot) updates.push_back(PriceUpdate{group, {}});
      for (std::size_t i = 0; i < kChurnPublishEvery * hot.size(); ++i) {
        const feed::Tick& tick = ticks[p * kChurnPublishEvery * hot.size() + i];
        updates[i % hot.size()].prices.push_back(tick.price);
      }
      const ScopedSpan span(&tracer, "sharded.board_ingest");
      scratch.fanout().ingest(updates);
    }
  }
  {
    ShardedPlanService scratch(&world.catalog, &world.estimator, world.market, tier_config());
    const std::uint64_t steps = kFeedPublications * kChurnPublishEvery;
    const std::unique_ptr<feed::FeedPipeline> feed = quiet_feed(scratch, steps);
    std::uint64_t epoch = scratch.fanout().epoch();
    for (const feed::Tick& tick :
         hot_ticks(world.catalog, base, steps, derive_seed(seed, kTickStream))) {
      const Clock::time_point t0 = Clock::now();
      feed->offer(tick);
      const Clock::time_point t1 = Clock::now();
      const bool published = scratch.fanout().epoch() != epoch;
      epoch = scratch.fanout().epoch();
      tracer.record(published ? "feed.publish" : "feed.offer", t0, t1);
    }
  }
  result.metrics.push_back(
      {"sharded.board_ingest_ms", to_ms(median(tracer.durations("sharded.board_ingest"))), "ms"});
  result.metrics.push_back(
      {"feed.offer_us", to_us(median(tracer.durations("feed.offer"))), "us"});
  result.metrics.push_back(
      {"feed.publish_ms", to_ms(median(tracer.durations("feed.publish"))), "ms"});
}

/// The optimizer's candidate pruning: the max_candidates groups with the
/// lowest expected full-run spot cost (SompiOptimizer::optimize_over).
std::vector<GroupSetup> kept_candidates(const std::vector<GroupSetup>& candidates,
                                        std::size_t max_candidates) {
  if (candidates.size() <= max_candidates) return candidates;
  std::vector<std::size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto score = [&](std::size_t i) {
    const GroupSetup& g = candidates[i];
    return g.failure.expected_price(g.failure.bid_count() - 1) * g.instances * g.t_steps;
  };
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return score(a) < score(b); });
  std::vector<GroupSetup> kept;
  for (std::size_t i = 0; i < max_candidates; ++i) kept.push_back(candidates[order[i]]);
  return kept;
}

/// The phases of a cold solve, on the sample's unconstrained keys (their
/// solve is exactly SompiOptimizer::optimize, so it decomposes into public
/// calls). Returns key → timed solve seconds.
std::map<std::size_t, double> core_ledger(const RunLog& log, const std::vector<Sampled>& sample,
                                          Deployment& d, Tracer& tracer,
                                          LedgerResult& result) {
  const World& world = *d.world;
  const PlanService& service = d.tier->shard(0);
  const OptimizerConfig& config = service.config().opt;
  const SompiOptimizer optimizer(&world.catalog, &world.estimator, config);
  const SetupBuilder builder(&world.catalog, &world.estimator);
  const OnDemandSelector selector(&world.catalog, &world.estimator);
  CheckpointPlanner::Config phi_config;
  phi_config.mode = config.phi_mode;
  phi_config.step_hours = config.setup.step_hours;
  phi_config.ratio_bins = config.ratio_bins;
  const CheckpointPlanner phi(phi_config);
  const CostModel::Config model_config{.step_hours = config.setup.step_hours,
                                       .ratio_bins = config.ratio_bins};
  const MarketSnapshot snapshot = d.tier->board(0).snapshot();
  const Market& market = *snapshot.market;

  std::map<std::size_t, double> solve_s;
  std::size_t mismatches = 0;
  std::size_t unreused = 0;
  for (const Sampled& s : sample) {
    const PlanRequest canon = canonicalized(log.keys[s.key]);
    if (!canon.allowed_types.empty() || !canon.allowed_zones.empty()) continue;
    const AppProfile& app = canon.app;
    const double deadline = canon.deadline_h;

    const Clock::time_point t0 = Clock::now();
    const Plan reference = service.solve(canon, market);
    const Clock::time_point t1 = Clock::now();
    tracer.record("core.solve", t0, t1, kNoParent, s.key);
    solve_s[s.key] = seconds_between(t0, t1);
    const std::string fingerprint = plan_fingerprint(reference);

    OnDemandChoice od;
    std::vector<GroupSetup> candidates;
    Plan decomposed;
    {
      const ScopedSpan parent(&tracer, "core.decomposed", kNoParent, s.key);
      {
        const ScopedSpan span(&tracer, "core.ondemand", parent.id(), s.key);
        od = selector.select(app, deadline, config.slack);
      }
      {
        const ScopedSpan span(&tracer, "core.setup", parent.id(), s.key);
        candidates = builder.build_candidates(app, market, config.setup, deadline);
      }
      std::vector<GroupSetup> moved = candidates;  // optimize() moves its list in
      const ScopedSpan span(&tracer, "core.optimize_over", parent.id(), s.key);
      decomposed = optimizer.optimize_over(app, std::move(moved), od, deadline);
    }
    if (plan_fingerprint(decomposed) != fingerprint) ++mismatches;

    for (const CircleGroupSpec& spec : world.catalog.all_groups()) {
      if (world.estimator.hours(app, world.catalog.type(spec.type_index),
                                world.catalog.zone(spec.zone_index).name) > deadline)
        continue;
      const ScopedSpan span(&tracer, "core.failure_model", kNoParent, s.key);
      (void)builder.build(app, spec, market, config.setup);
    }

    const std::vector<GroupSetup> kept = kept_candidates(candidates, config.max_candidates);
    std::vector<std::vector<int>> f_of(kept.size());
    {
      const ScopedSpan span(&tracer, "core.phi", kNoParent, s.key);
      for (std::size_t g = 0; g < kept.size(); ++g)
        for (std::size_t b = 0; b < kept[g].failure.bid_count(); ++b)
          f_of[g].push_back(phi.choose(kept[g], b, od));
    }
    {
      const ScopedSpan span(&tracer, "core.cost_table", kNoParent, s.key);
      for (std::size_t g = 0; g < kept.size(); ++g) {
        std::vector<ChoiceSpec> choices;
        for (std::size_t b = 0; b < f_of[g].size(); ++b)
          choices.push_back(ChoiceSpec{.bid_index = b, .f_steps = f_of[g][b]});
        const GroupCostTable table(kept[g], od, model_config, choices);
      }
    }
    // Branch-and-bound alone: every per-group artifact already stored, no
    // incumbent seed.
    CostTableStore store;
    ReplanContext ctx{&store, canonical_key(canon), snapshot.versions, nullptr};
    (void)optimizer.optimize(app, market, deadline, &ctx);
    Plan searched;
    {
      std::vector<GroupSetup> moved = candidates;
      const ScopedSpan span(&tracer, "core.search", kNoParent, s.key);
      searched = optimizer.optimize_over(app, std::move(moved), od, deadline, &ctx);
    }
    if (plan_fingerprint(searched) != fingerprint) ++mismatches;
    if (searched.stats.tables_built != 0) ++unreused;
  }

  const double keys = static_cast<double>(solve_s.size());
  const auto total = [&](const char* name) {
    const std::vector<double> v = tracer.durations(name);
    return std::accumulate(v.begin(), v.end(), 0.0);
  };
  const double solve = total("core.solve");
  const double ondemand = total("core.ondemand");
  const double setup = total("core.setup");
  const double optimize_over = total("core.optimize_over");
  const double phi_s = total("core.phi");
  const double tables = total("core.cost_table");
  const double search = total("core.search");
  const double accounted = ratio(ondemand + setup + optimize_over, solve);
  const std::vector<double> glue = tracer.self_times("core.decomposed");

  result.metrics.push_back({"core.solve_ms", to_ms(ratio(solve, keys)), "ms"});
  result.metrics.push_back({"core.ondemand_us", to_us(ratio(ondemand, keys)), "us"});
  result.metrics.push_back(
      {"core.failure_model_ms", to_ms(mean(tracer.durations("core.failure_model"))), "ms"});
  result.metrics.push_back({"core.setup_ms", to_ms(ratio(setup, keys)), "ms"});
  result.metrics.push_back({"core.phi_ms", to_ms(ratio(phi_s, keys)), "ms"});
  result.metrics.push_back({"core.cost_table_ms", to_ms(ratio(tables, keys)), "ms"});
  result.metrics.push_back({"core.search_ms", to_ms(ratio(search, keys)), "ms"});
  result.metrics.push_back({"core.accounted_pct", 100.0 * accounted, "%"});

  result.notes.push_back(format(
      "core: %.0f unconstrained keys, mean cold solve %.2f ms; shares of the solve:", keys,
      to_ms(ratio(solve, keys))));
  const double other = solve - ondemand - setup - phi_s - tables - search;
  const std::pair<const char*, double> shares[] = {
      {"on-demand pick", ondemand},       {"setup (failure estimation)", setup},
      {"phi intervals", phi_s},           {"cost tables", tables},
      {"branch-and-bound search", search}, {"other (guard tables, pruning, glue)", other}};
  for (const auto& [name, seconds] : shares)
    result.notes.push_back("  " + std::string(name) +
                           format(": %.1f%%", 100.0 * ratio(seconds, solve)));
  const bool within = std::abs(accounted - 1.0) <= kAccountingTolerance;
  result.notes.push_back(
      std::string(within ? "PASS" : "WARN") +
      format(": on-demand + setup + optimize_over = %.1f%% of the timed solve (tolerance "
             "±%.0f%%)",
             100.0 * accounted, 100.0 * kAccountingTolerance));
  result.notes.push_back(format("  self time of the decomposition's parent span: %.3f ms total",
                                to_ms(std::accumulate(glue.begin(), glue.end(), 0.0))));
  if (mismatches > 0 || unreused > 0) {
    result.ok = false;
    result.notes.push_back(format(
        "FAIL: %.0f decomposed plans differ from the solve; %.0f searches rebuilt tables",
        static_cast<double>(mismatches), static_cast<double>(unreused)));
  }
  return solve_s;
}

// --- census ------------------------------------------------------------------

/// Tier, warm-start store and feed counters by name.
using Counters = std::map<std::string, double>;

Counters read_counters(Deployment& d) {
  const ShardedStats s = d.tier->stats();
  Counters c;
  const auto set = [&](const char* name, std::uint64_t value) {
    c[name] += static_cast<double>(value);
  };
  set("requests", s.total.requests);
  set("hits", s.total.hits);
  set("solves", s.total.solves);
  set("joins", s.total.dedup_joins);
  set("sheds", s.total.sheds);
  set("replans", s.total.replan_count);
  set("forwarded", s.forwarded);
  set("duplicate_solves", s.duplicate_solves);
  set("model_evaluations", s.total.model_evaluations);
  set("evaluations", s.total.evaluations_performed);
  set("tuples_pruned", s.total.tuples_pruned);
  set("tables_reused", s.total.replan_table_hits);
  set("tables_built", s.total.replan_table_misses);
  set("warm_seeds", s.total.warm_seeds);
  for (std::size_t i = 0; i < d.tier->shard_count(); ++i) {
    const CostTableStore::Stats store = d.tier->shard(i).table_store_stats();
    set("store_hits", store.hits);
    set("store_misses", store.misses);
  }
  const feed::FeedStats f = d.feed != nullptr ? d.feed->stats() : feed::FeedStats{};
  set("epochs_published", f.epochs_published);
  set("estimates_computed", f.estimates_computed);
  set("columns_withheld", f.columns_withheld);
  return c;
}

/// Offers `ticks` (if any), serves `requests`, and adds the counter deltas
/// to `total`. The per-solve tuples_visited count is read from the cached
/// server-side plans after the deltas are taken (those probes are hits of
/// their own).
void census_step(Deployment& d, const std::vector<feed::Tick>& ticks,
                 const std::vector<PlanRequest>& requests, std::size_t window, Counters& total) {
  const Counters before = read_counters(d);
  for (const feed::Tick& tick : ticks) d.feed->offer(tick);
  const std::vector<PlanResponse> responses = d.serve_all(requests, window);
  for (const auto& [name, value] : read_counters(d)) total[name] += value - before.at(name);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (responses[i].outcome != PlanOutcome::kSolved) continue;
    const std::string key = canonical_key(canonicalized(requests[i]));
    const std::optional<PlanResponse> cached =
        d.tier->shard(d.tier->home_shard_for_key(key)).try_cached(key);
    if (!cached) throw std::runtime_error("census: a solved plan left the cache");
    total["tuples_visited"] += static_cast<double>(cached->plan->stats.tuples_visited);
  }
  total["store_bytes"] = 0.0;
  for (std::size_t i = 0; i < d.tier->shard_count(); ++i)
    total["store_bytes"] += static_cast<double>(d.tier->shard(i).table_store_stats().bytes);
}

Metrics census_once(Workload workload, std::uint64_t seed) {
  Counters c;
  switch (workload) {
    case Workload::kColdSolve: {
      Deployment d = deploy(workload, seed, 0);
      RequestFactory factory(d.world.get(), derive_seed(seed, kColdStream));
      std::vector<PlanRequest> requests;
      for (std::size_t i = 0; i < kCensusColdRequests; ++i)
        requests.push_back(factory.next_distinct());
      census_step(d, {}, requests, kColdOutstanding, c);
      break;
    }
    case Workload::kWarmHit: {
      Deployment d = deploy(workload, seed, 0);
      Rng order(derive_seed(seed, kOrderStream));
      std::vector<PlanRequest> requests;
      for (std::size_t i = 0; i < kCensusWarmRequests; ++i)
        requests.push_back(d.keys[order.uniform_index(d.keys.size())]);
      census_step(d, {}, requests, kWarmWindow, c);
      break;
    }
    case Workload::kEpochChurn: {
      // One publication at a time, then every working-set key once.
      const std::uint64_t steps = kCensusEpochs * kChurnPublishEvery;
      Deployment d = deploy(workload, seed, steps);
      const std::vector<feed::Tick> ticks =
          hot_ticks(d.world->catalog, d.feed_base_step, steps, derive_seed(seed, kTickStream));
      const std::size_t per_epoch = ticks.size() / kCensusEpochs;
      for (std::size_t e = 0; e < kCensusEpochs; ++e) {
        const std::vector<feed::Tick> batch(ticks.begin() + e * per_epoch,
                                            ticks.begin() + (e + 1) * per_epoch);
        census_step(d, batch, d.keys, d.keys.size(), c);
      }
      break;
    }
  }
  const auto n = [&](const char* name) { return c[name]; };
  return {
      {"service.solves", n("solves"), "count"},
      {"service.hits", n("hits"), "count"},
      {"service.dedup_joins", n("joins"), "count"},
      {"service.sheds", n("sheds"), "count"},
      {"service.replans", n("replans"), "count"},
      {"service.hit_ratio", ratio(n("hits"), n("requests")), "ratio"},
      {"sharded.forwarded", n("forwarded"), "count"},
      {"sharded.duplicate_solves", n("duplicate_solves"), "count"},
      {"core.model_evaluations", n("model_evaluations"), "count"},
      {"core.evaluations_performed", n("evaluations"), "count"},
      {"core.tuples_visited", n("tuples_visited"), "count"},
      {"core.tuples_pruned", n("tuples_pruned"), "count"},
      {"core.prune_ratio", ratio(n("tuples_pruned"), n("tuples_pruned") + n("evaluations")),
       "ratio"},
      {"core.tables_reused", n("tables_reused"), "count"},
      {"core.tables_built", n("tables_built"), "count"},
      {"core.table_reuse_ratio",
       ratio(n("tables_reused"), n("tables_reused") + n("tables_built")), "ratio"},
      {"core.warm_seeds", n("warm_seeds"), "count"},
      {"cost_table_store.hit_ratio",
       ratio(n("store_hits"), n("store_hits") + n("store_misses")), "ratio"},
      {"cost_table_store.bytes", n("store_bytes"), "bytes"},
      {"feed.epochs_published", n("epochs_published"), "count"},
      {"feed.estimates_computed", n("estimates_computed"), "count"},
      {"feed.columns_withheld", n("columns_withheld"), "count"},
  };
}

}  // namespace

LedgerResult layer_ledger(Workload workload, std::uint64_t seed, Deployment& d,
                          const RunLog& traced, double untraced_p50_s, Tracer& tracer) {
  LedgerResult result;
  const net::WireTierStats wire = d.server->stats();
  const std::vector<Sampled> sample = sample_of(workload, d, traced);

  net_codec(traced, sample, tracer, result);
  service_probes(traced, sample, d, tracer, result);
  publication_ledger(d, seed, tracer, result);
  const std::map<std::size_t, double> solve_s = core_ledger(traced, sample, d, tracer, result);

  // Queue wait: a cold solve's wire latency minus the timed solve of the
  // same key. Only cold_solve's timed phase solves cold; elsewhere it is 0.
  std::vector<double> wait;
  for (const Sample& sample : traced.samples) {
    const auto it = solve_s.find(sample.key);
    if (workload == Workload::kColdSolve && sample.solved && it != solve_s.end())
      wait.push_back(sample.latency_s - it->second);
  }

  result.metrics.push_back({"net.frames_rejected",
                            static_cast<double>(wire.frames_rejected +
                                                d.client->codec_stats().rejects()),
                            "count"});
  result.metrics.push_back({"net.wire_sheds", static_cast<double>(wire.wire_sheds), "count"});
  result.metrics.push_back({"net.wire_errors", static_cast<double>(wire.wire_errors), "count"});
  result.metrics.push_back({"service.wait_ms", to_ms(median(wait)), "ms"});
  result.metrics.push_back(
      {"bench.tracing_overhead_pct",
       100.0 * (ratio(latency_quantile(traced, 0.5).seconds, untraced_p50_s) - 1.0), "%"});
  result.metrics.push_back(
      {"bench.generator_lag_p99_ms", to_ms(percentile(traced.lag_s, 0.99)), "ms"});
  result.metrics.push_back(
      {"bench.inflight_at_end", static_cast<double>(traced.inflight_at_end), "count"});
  return result;
}

CensusResult census(Workload workload, std::uint64_t seed) {
  CensusResult result;
  result.metrics = census_once(workload, seed);
  const Metrics again = census_once(workload, seed);
  for (std::size_t i = 0; i < again.size(); ++i)
    if (again[i].value != result.metrics[i].value) result.repeatable = false;
  return result;
}

}  // namespace perfbench
