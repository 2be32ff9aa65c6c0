// Feed-pipeline tests: queue semantics, source determinism, the per-group
// resolution frontier, epoch publication into the
// serving layer, and the determinism gate (producer count and chaos are
// invisible in the committed bits). Concurrent suites are named FeedStress*
// so the TSan CI slice picks them up.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/adaptive.h"
#include "faultinject/fault_plan.h"
#include "faultinject/injector.h"
#include "feed/board_oracle.h"
#include "feed/pipeline.h"
#include "feed/tick_queue.h"
#include "feed/tick_source.h"
#include "profile/paper_profiles.h"
#include "service/plan_service.h"
#include "sim/replay.h"
#include "trace/market.h"

namespace sompi {
namespace {

using feed::ChaosTickSource;
using feed::CsvTickSource;
using feed::FeedConfig;
using feed::FeedPipeline;
using feed::FeedStats;
using feed::ReplayTickSource;
using feed::SyntheticTickSource;
using feed::Tick;
using feed::TickQueue;
using feed::VectorTickSource;

std::vector<Tick> drain(feed::TickSource& source) {
  std::vector<Tick> out;
  while (std::optional<Tick> t = source.next()) out.push_back(*t);
  return out;
}

// --- TickQueue --------------------------------------------------------------

TEST(TickQueue, FifoAndCloseSemantics) {
  TickQueue q(8);
  for (std::uint64_t i = 0; i < 3; ++i) {
    Tick t;
    t.seq = i;
    ASSERT_TRUE(q.push(t));
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto t = q.pop();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->seq, i);
  }
  q.close();
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.push(Tick{}));
  const TickQueue::Stats s = q.stats();
  EXPECT_EQ(s.pushed, 3u);
  EXPECT_EQ(s.popped, 3u);
  EXPECT_EQ(s.rejected_closed, 1u);
}

TEST(TickQueue, TryPushShedsAtCapacity) {
  TickQueue q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(Tick{}));
  EXPECT_FALSE(q.try_push(Tick{}));  // explicit backpressure, no blocking
  const TickQueue::Stats s = q.stats();
  EXPECT_EQ(s.pushed, 4u);
  EXPECT_EQ(s.rejected_full, 1u);
  EXPECT_EQ(s.max_depth, 4u);
  EXPECT_EQ(q.depth(), 4u);
}

TEST(FeedStressQueue, BlockingProducerDrainsThroughTinyQueue) {
  // Capacity 2 forces the producer to block; memory stays bounded while all
  // ticks still arrive in FIFO order.
  TickQueue q(2);
  constexpr std::uint64_t kTicks = 500;
  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kTicks; ++i) {
      Tick t;
      t.seq = i;
      ASSERT_TRUE(q.push(t));
    }
    q.close();
  });
  std::uint64_t expect = 0;
  while (const auto t = q.pop()) {
    EXPECT_EQ(t->seq, expect);
    ++expect;
  }
  producer.join();
  EXPECT_EQ(expect, kTicks);
  const TickQueue::Stats s = q.stats();
  EXPECT_EQ(s.pushed, kTicks);
  EXPECT_EQ(s.popped, kTicks);
  EXPECT_LE(s.max_depth, 2u);
}

// --- Sources ----------------------------------------------------------------

TEST(TickSource, ReplayShardsReproduceTheUnshardedStream) {
  const Catalog catalog = paper_catalog();
  const Market market =
      generate_market(catalog, paper_market_profile(catalog), 0.5, 0.25, 11);
  ReplayTickSource all(&market, {}, 10, 8);
  const std::vector<Tick> whole = drain(all);
  const std::size_t groups = catalog.all_groups().size();
  ASSERT_EQ(whole.size(), groups * 8);

  // Shard by group: the union of per-shard streams must be exactly the
  // unsharded stream (same seqs, same prices), just re-partitioned.
  std::vector<Tick> sharded;
  for (const CircleGroupSpec& g : catalog.all_groups()) {
    ReplayTickSource shard(&market, {g}, 10, 8);
    for (const Tick& t : drain(shard)) sharded.push_back(t);
  }
  ASSERT_EQ(sharded.size(), whole.size());
  std::vector<std::uint64_t> seq_a, seq_b;
  for (const Tick& t : whole) seq_a.push_back(t.seq);
  for (const Tick& t : sharded) seq_b.push_back(t.seq);
  std::sort(seq_a.begin(), seq_a.end());
  std::sort(seq_b.begin(), seq_b.end());
  EXPECT_EQ(seq_a, seq_b);
  for (const Tick& t : whole)
    EXPECT_EQ(t.price, market.trace(t.group).price(t.step));
}

TEST(TickSource, SyntheticWalksAreShardingIndependent) {
  const Catalog catalog = paper_catalog();
  SyntheticTickSource::Config cfg;
  cfg.seed = 99;
  cfg.steps = 16;
  SyntheticTickSource all(&catalog, {}, cfg);
  const std::vector<Tick> whole = drain(all);

  const CircleGroupSpec pick = catalog.all_groups()[4];
  SyntheticTickSource solo(&catalog, {pick}, cfg);
  const std::vector<Tick> single = drain(solo);
  ASSERT_EQ(single.size(), 16u);
  std::size_t matched = 0;
  for (const Tick& t : whole) {
    if (!(t.group == pick)) continue;
    EXPECT_EQ(t.seq, single[matched].seq);
    EXPECT_EQ(t.price, single[matched].price);
    ++matched;
  }
  EXPECT_EQ(matched, 16u);
  for (const Tick& t : whole) EXPECT_GE(t.price, 0.0);
}

TEST(TickSource, CsvSkipsEachCorruptionClassWithCounters) {
  const Catalog catalog = paper_catalog();
  const std::string text =
      "step,type,zone,price\n"
      "0,m1.small,us-east-1a,0.02\n"
      "1,m1.small,us-east-1a,0.021\n"
      "1,m1.small,us-east-1a,0.5\n"          // duplicate (step, group)
      "2,m1.small\n"                          // truncated row
      "2,m1.small,us-east-1a,oops\n"          // non-numeric price
      "x,m1.small,us-east-1a,0.02\n"          // non-numeric step
      "2,m9.huge,us-east-1a,0.02\n"           // unknown type
      "2,m1.small,mars-1a,0.02\n"             // unknown zone
      "2,m1.small,us-east-1a,-0.5\n"          // negative price
      "2,m1.small,us-east-1b,0.03\n";
  CsvTickSource source(&catalog, text);
  const CsvTickSource::Stats s = source.stats();
  EXPECT_EQ(s.ragged_skipped, 1u);
  EXPECT_EQ(s.bad_number, 3u);        // bad price, bad step, negative price
  EXPECT_EQ(s.unknown_group, 2u);
  EXPECT_EQ(s.duplicate_skipped, 1u);
  EXPECT_EQ(s.ticks_emitted, 3u);
  const std::vector<Tick> ticks = drain(source);
  ASSERT_EQ(ticks.size(), 3u);
  EXPECT_EQ(ticks[0].step, 0u);
  EXPECT_DOUBLE_EQ(ticks[1].price, 0.021);
  EXPECT_EQ(ticks[2].group.zone_index, catalog.zone_index("us-east-1b"));
}

TEST(TickSource, ChaosQuietPlanIsIdentity) {
  const Catalog catalog = paper_catalog();
  const Market market =
      generate_market(catalog, paper_market_profile(catalog), 0.5, 0.25, 3);
  fi::FaultInjector injector(fi::FaultPlan::quiet(1));
  ReplayTickSource inner(&market, {}, 0, 4);
  ChaosTickSource chaos(&inner, &injector);
  ReplayTickSource reference(&market, {}, 0, 4);
  const std::vector<Tick> a = drain(chaos);
  const std::vector<Tick> b = drain(reference);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].price, b[i].price);
  }
  EXPECT_EQ(chaos.stats().dropped, 0u);
}

TEST(TickSource, ChaosClassesActOnTheStream) {
  std::vector<Tick> ticks(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ticks[i].seq = i;
    ticks[i].step = i;
    ticks[i].price = 1.0 + static_cast<double>(i);
  }
  {  // dup: every tick emitted twice, same canonical seq
    fi::FaultPlan plan = fi::FaultPlan::quiet(2);
    plan.p_tick_dup = 1.0;
    fi::FaultInjector injector(plan);
    VectorTickSource inner(ticks);
    ChaosTickSource chaos(&inner, &injector);
    const std::vector<Tick> out = drain(chaos);
    ASSERT_EQ(out.size(), 8u);
    for (std::size_t i = 0; i < out.size(); i += 2) EXPECT_EQ(out[i].seq, out[i + 1].seq);
    EXPECT_EQ(chaos.stats().duplicated, 4u);
  }
  {  // drop: nothing survives, everything counted
    fi::FaultPlan plan = fi::FaultPlan::quiet(2);
    plan.p_tick_drop = 1.0;
    fi::FaultInjector injector(plan);
    VectorTickSource inner(ticks);
    ChaosTickSource chaos(&inner, &injector);
    EXPECT_TRUE(drain(chaos).empty());
    EXPECT_EQ(chaos.stats().dropped, 4u);
  }
  {  // late: the one-slot hold swaps adjacent survivors
    fi::FaultPlan plan = fi::FaultPlan::quiet(2);
    plan.p_tick_late = 1.0;
    fi::FaultInjector injector(plan);
    VectorTickSource inner(ticks);
    ChaosTickSource chaos(&inner, &injector);
    const std::vector<Tick> out = drain(chaos);
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0].seq, 1u);  // t0 held, released after t1
    EXPECT_EQ(out[1].seq, 0u);
    EXPECT_EQ(out[2].seq, 3u);
    EXPECT_EQ(out[3].seq, 2u);
    EXPECT_EQ(chaos.stats().delayed, 2u);
  }
}

// --- Pipeline: resolution frontier on a hand-built single-group market. ----

struct TinyWorld {
  Catalog catalog{{InstanceType{.name = "t1", .ondemand_usd_h = 1.0}},
                  {Zone{"z1"}}};
  MarketBoard board{Market(&catalog, {SpotTrace(1.0, {1.0, 2.0})})};

  Tick tick(std::uint64_t step, double price) const {
    Tick t;
    t.group = CircleGroupSpec{0, 0};
    t.step = step;
    t.seq = step;  // one group: canonical seq == step
    t.price = price;
    return t;
  }

  FeedConfig config() const {
    FeedConfig c;
    c.publish_every = 2;
    c.late_horizon = 3;
    return c;
  }
};

TEST(FeedPipeline, GapFillsAfterTheLateHorizon) {
  TinyWorld w;
  FeedPipeline pipe(&w.board, w.config());
  pipe.offer(w.tick(2, 3.0));  // next step after the primed board
  pipe.offer(w.tick(4, 5.0));  // skips step 3
  EXPECT_EQ(pipe.frontier_step(), 3u);  // step 3 still within the horizon
  pipe.offer(w.tick(5, 6.0));  // know = 6 ≥ 3 + 3 → step 3 is declared lost
  EXPECT_EQ(pipe.frontier_step(), 6u);
  pipe.flush();
  const FeedStats s = pipe.stats();
  EXPECT_EQ(s.ticks_ingested, 3u);
  EXPECT_EQ(s.committed_values, 3u);
  EXPECT_EQ(s.gaps_filled, 1u);
  EXPECT_EQ(s.committed_steps, 4u);
  EXPECT_EQ(s.late_dropped, 0u);
  const MarketSnapshot snap = w.board.snapshot();
  const std::vector<double> want = {1.0, 2.0, 3.0, 3.0, 5.0, 6.0};  // gap carries 3.0
  ASSERT_EQ(snap.market->trace({0, 0}).steps(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(snap.market->trace({0, 0}).price(i), want[i]) << "step " << i;
}

TEST(FeedPipeline, DropsStragglersAndDuplicates) {
  TinyWorld w;
  FeedPipeline pipe(&w.board, w.config());
  pipe.offer(w.tick(2, 3.0));
  pipe.offer(w.tick(3, 4.0));
  pipe.offer(w.tick(2, 9.0));   // step 2 already resolved → late
  pipe.offer(w.tick(10, 1.0));  // parked pending
  pipe.offer(w.tick(10, 2.0));  // duplicate of a pending step
  pipe.flush();
  const FeedStats s = pipe.stats();
  EXPECT_EQ(s.late_dropped, 1u);
  EXPECT_EQ(s.duplicates_dropped, 1u);
  EXPECT_EQ(s.ticks_ingested,
            s.committed_values + s.duplicates_dropped + s.late_dropped);
  EXPECT_EQ(s.committed_values + s.gaps_filled, s.committed_steps * 1u);
  // flush force-resolved the pending run: steps 4..9 gap-filled, 10 real.
  EXPECT_EQ(s.committed_steps, 9u);
  EXPECT_EQ(s.gaps_filled, 6u);
  // Delta publication withholds the all-gap batches {4,5}, {6,7}, {8,9}
  // (this is the one-group market, so each is a full suppression — no epoch
  // bump), publishing only {2,3} and the final partial batch {10}: the gap
  // carry-forward never reaches the board.
  EXPECT_EQ(s.epochs_published, 2u);
  EXPECT_EQ(s.batches_suppressed, 3u);
  EXPECT_EQ(s.columns_withheld, 3u);
  const MarketSnapshot snap = w.board.snapshot();
  ASSERT_EQ(snap.market->trace({0, 0}).steps(), 5u);  // 1, 2, 3, 4, then 10's value
  EXPECT_EQ(snap.market->trace({0, 0}).price(4), 1.0);
  EXPECT_EQ(snap.market->trace({0, 0}).price(3), 4.0);
}

TEST(FeedPipeline, PublishesEpochBatchesThatBitMatchTheRecordedMarket) {
  const Catalog catalog = paper_catalog();
  const Market full =
      generate_market(catalog, paper_market_profile(catalog), 1.0, 0.25, 21);
  const std::size_t len = full.trace({0, 0}).steps();
  const std::size_t visible = len / 2;
  MarketBoard board(full.window(0, visible));
  const std::uint64_t epoch0 = board.epoch();

  FeedConfig cfg;
  cfg.publish_every = 8;
  FeedPipeline pipe(&board, cfg);
  ReplayTickSource source(&full, {}, visible, len - visible);
  pipe.ingest(source);
  pipe.flush();

  const FeedStats s = pipe.stats();
  const std::size_t tail = len - visible;
  EXPECT_EQ(s.committed_steps, tail);
  EXPECT_EQ(s.gaps_filled, 0u);
  EXPECT_EQ(s.estimates_computed, 0u);  // plans estimate; the feed never does
  const std::size_t batches = (tail + cfg.publish_every - 1) / cfg.publish_every;
  EXPECT_EQ(s.epochs_published, batches);
  EXPECT_EQ(board.epoch(), epoch0 + batches);

  const auto log = pipe.publish_log();
  ASSERT_EQ(log.size(), batches);
  EXPECT_EQ(log.back().end_step, len);
  for (std::size_t i = 1; i < log.size(); ++i)
    EXPECT_EQ(log[i].epoch, log[i - 1].epoch + 1);

  // The published market bit-matches the recorded one.
  const MarketSnapshot snap = board.snapshot();
  for (const CircleGroupSpec& g : catalog.all_groups())
    for (std::size_t i = 0; i < len; ++i)
      ASSERT_EQ(snap.market->trace(g).price(i), full.trace(g).price(i));
}

// --- Determinism gate: producer count and queueing are invisible. -----------

TEST(FeedStressPipeline, MultiProducerRunIsBitIdenticalToSync) {
  const Catalog catalog = paper_catalog();
  const Market full =
      generate_market(catalog, paper_market_profile(catalog), 1.0, 0.25, 33);
  const std::size_t len = full.trace({0, 0}).steps();
  const std::size_t visible = len / 2;

  FeedConfig cfg;
  cfg.publish_every = 8;
  cfg.queue_capacity = 16;  // small: force real backpressure

  MarketBoard board_sync(full.window(0, visible));
  FeedPipeline sync(&board_sync, cfg);
  ReplayTickSource source(&full, {}, visible, len - visible);
  sync.ingest(source);
  sync.flush();

  for (const std::size_t producers : {1u, 8u}) {
    MarketBoard board(full.window(0, visible));
    FeedPipeline pipe(&board, cfg);
    pipe.start();
    const std::vector<CircleGroupSpec> all = catalog.all_groups();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        std::vector<CircleGroupSpec> mine;
        for (std::size_t g = p; g < all.size(); g += producers) mine.push_back(all[g]);
        ReplayTickSource shard(&full, mine, visible, len - visible);
        pipe.pump(shard);
      });
    }
    for (auto& t : threads) t.join();
    pipe.stop();
    pipe.flush();
    EXPECT_EQ(pipe.commit_digest(), sync.commit_digest()) << producers << " producers";
    EXPECT_EQ(pipe.stats().committed_steps, sync.stats().committed_steps);
    EXPECT_EQ(pipe.stats().gaps_filled, 0u);
    EXPECT_EQ(pipe.queue_stats().pushed, pipe.stats().ticks_ingested);
  }
}

TEST(FeedStressPipeline, ChaosDecoratedShardsStayDeterministic) {
  // Same post-chaos streams, 1 producer vs 4 producers: identical digests.
  const Catalog catalog = paper_catalog();
  const Market full =
      generate_market(catalog, paper_market_profile(catalog), 1.0, 0.25, 55);
  const std::size_t len = full.trace({0, 0}).steps();
  const std::size_t visible = len / 2;
  fi::FaultPlan plan = fi::FaultPlan::quiet(1234);
  plan.p_tick_drop = 0.1;
  plan.p_tick_dup = 0.1;
  plan.p_tick_late = 0.15;

  FeedConfig cfg;
  cfg.publish_every = 8;
  const std::vector<CircleGroupSpec> all = catalog.all_groups();

  std::uint64_t first_digest = 0;
  for (const std::size_t producers : {1u, 4u}) {
    MarketBoard board(full.window(0, visible));
    FeedPipeline pipe(&board, cfg);
    fi::FaultInjector injector(plan);
    pipe.start();
    std::vector<std::thread> threads;
    for (std::size_t p = 0; p < producers; ++p) {
      threads.emplace_back([&, p] {
        for (std::size_t g = p; g < all.size(); g += producers) {
          ReplayTickSource inner(&full, {all[g]}, visible, len - visible);
          ChaosTickSource chaos(&inner, &injector);
          pipe.pump(chaos);
        }
      });
    }
    for (auto& t : threads) t.join();
    pipe.stop();
    pipe.flush();
    const FeedStats s = pipe.stats();
    EXPECT_EQ(s.ticks_ingested,
              s.committed_values + s.duplicates_dropped + s.late_dropped);
    EXPECT_EQ(s.committed_values + s.gaps_filled, s.committed_steps * all.size());
    if (producers == 1)
      first_digest = pipe.commit_digest();
    else
      EXPECT_EQ(pipe.commit_digest(), first_digest);
  }
}

// --- Serving-layer integration ---------------------------------------------

OptimizerConfig tiny_opt() {
  OptimizerConfig opt;
  opt.max_candidates = 2;
  opt.max_groups = 1;
  opt.setup.log_levels = 2;
  opt.setup.failure.samples = 200;
  opt.ratio_bins = 16;
  return opt;
}

TEST(FeedService, EpochPublicationInvalidatesThePlanCache) {
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  const Market full =
      generate_market(catalog, paper_market_profile(catalog), 1.5, 0.25, 44);
  const std::size_t len = full.trace({0, 0}).steps();
  const std::size_t visible = (2 * len) / 3;
  MarketBoard board(full.window(0, visible));

  ServiceConfig scfg;
  scfg.opt = tiny_opt();
  PlanService service(&catalog, &estimator, &board, scfg);
  const OnDemandSelector selector(&catalog, &estimator);
  PlanRequest request;
  request.app = paper_profile("BT");
  request.deadline_h = selector.baseline(request.app).t_h * 2.0;

  const PlanResponse first = service.serve(request);
  ASSERT_NE(first.plan, nullptr);
  EXPECT_EQ(service.serve(request).outcome, PlanOutcome::kHit);

  // Stream the hidden tail through the feed: each publish bumps the epoch,
  // so the cached plan silently stops matching — no explicit invalidation.
  FeedConfig fcfg;
  fcfg.publish_every = 8;
  FeedPipeline pipe(&board, fcfg);
  ReplayTickSource source(&full, {}, visible, len - visible);
  pipe.ingest(source);
  pipe.flush();
  ASSERT_GT(board.epoch(), first.epoch);

  const MarketSnapshot now = board.snapshot();
  const PlanResponse after = service.serve(request);
  ASSERT_NE(after.plan, nullptr);
  EXPECT_EQ(after.outcome, PlanOutcome::kSolved);  // the hit would be stale
  EXPECT_EQ(after.epoch, now.epoch);
  const Plan fresh = service.solve(canonicalized(request), *now.market);
  EXPECT_EQ(plan_fingerprint(*after.plan), plan_fingerprint(fresh));
}

TEST(FeedService, FeedDrivenAdaptiveMatchesTraceReplayBitwise) {
  // The end-to-end determinism claim: an adaptive run whose history comes
  // from a live feed (board + window hook) is bit-identical to the same run
  // over the pre-recorded market.
  const Catalog catalog = paper_catalog();
  const ExecTimeEstimator estimator;
  const AppProfile app = paper_profile("BT");
  const OnDemandSelector selector(&catalog, &estimator);
  const double deadline_h = selector.baseline(app).t_h * 1.5;

  // Size the recorded market so the run can never ask for history past the
  // recording's end (the feed oracle REQUIREs the feed committed that far).
  const double step_h = 0.25;
  const double start_h = 24.0;
  const double days = (start_h + deadline_h) / 24.0 + 1.0;
  const Market full =
      generate_market(catalog, paper_market_profile(catalog), days, step_h, 66);
  const std::size_t len = full.trace({0, 0}).steps();
  const std::size_t visible = static_cast<std::size_t>(start_h / step_h);

  AdaptiveConfig acfg;
  acfg.window_h = 8.0;
  acfg.lookback_h = 24.0;
  acfg.opt = tiny_opt();

  // Reference: pure trace replay over the full recorded market.
  MarketReplayOracle reference(&full);
  const AdaptiveEngine ref_engine(&catalog, &estimator, acfg);
  const AdaptiveResult want = ref_engine.run(app, reference, start_h, deadline_h);

  // Feed-driven: the board sees only the prefix; the window hook advances
  // the pipeline to `now` before each re-estimation. publish_every = 1 so
  // the board is current up to the commit frontier.
  MarketBoard board(full.window(0, visible));
  FeedConfig fcfg;
  fcfg.publish_every = 1;
  FeedPipeline pipe(&board, fcfg);
  ReplayTickSource source(&full, {}, visible, len - visible);
  AdaptiveConfig feed_cfg = acfg;
  feed_cfg.window_hook = [&](int, double now_h) {
    const auto need = static_cast<std::uint64_t>(now_h / step_h);
    while (pipe.frontier_step() < need) {
      const std::optional<Tick> t = source.next();
      if (!t) break;
      pipe.offer(*t);
    }
  };
  MarketReplayOracle inner(&full);  // windows still execute on the recording
  feed::FeedHistoryOracle oracle(&board, &inner);
  const AdaptiveEngine feed_engine(&catalog, &estimator, feed_cfg);
  const AdaptiveResult got = feed_engine.run(app, oracle, start_h, deadline_h);

  EXPECT_EQ(got.cost_usd, want.cost_usd);
  EXPECT_EQ(got.hours, want.hours);
  EXPECT_EQ(got.windows, want.windows);
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.fell_back_to_ondemand, want.fell_back_to_ondemand);
  EXPECT_EQ(got.model_evaluations, want.model_evaluations);
}

}  // namespace
}  // namespace sompi
