// FeedPipeline — streaming spot-price ingestion driving epoch publication
// (DESIGN.md §10).
//
// Ticks enter through one door, offer() (ingest() drains a source through
// it), from any number of caller threads — the pipeline owns no thread; one
// mutex serializes every tick — and are folded into a per-group *resolution
// frontier*:
//
//   * each group's next unresolved step resolves to its tick price the
//     moment that tick arrives, or to a gap-fill (the group's last resolved
//     price) once the group's own stream has advanced `late_horizon` steps
//     past it;
//   * a market row commits when EVERY group has resolved it; every
//     `publish_every` committed rows the batch is ingested into the
//     MarketBoard as one atomic epoch bump. The feed estimates nothing:
//     failure curves are fitted from the board's history when a plan is
//     made (SetupBuilder -> FailureModel);
//   * publication is *delta-precise*: only groups with at least one real
//     tick in the batch publish their column (all-gap columns are withheld —
//     a group that heard nothing must not have its board history move, or
//     downstream warm re-plans could not reuse its cached cost tables
//     bit-identically), and a batch in which no group changed is suppressed
//     entirely: no epoch bump, no publish record. Withholding is a pure
//     function of each group's own stream, so determinism is unaffected.
//
// Determinism: a group's resolved column is a pure function of that group's
// post-chaos tick stream (plus late_horizon and the primed last value) —
// never of cross-group arrival interleaving — so the committed price matrix,
// the epoch publication sequence and the commit digest are bit-identical at
// any producer count, with or without a ChaosTickSource in front, for the
// same underlying streams. The one contract on callers: each group's ticks
// arrive in stream order, so each group is fed by a single thread.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "feed/tick.h"
#include "service/market_board.h"

namespace sompi::feed {

struct FeedConfig {
  /// Committed rows per epoch publication (the feed's T_m granularity).
  std::size_t publish_every = 16;
  /// Steps a group's stream may run ahead of an unresolved step before that
  /// step is declared lost and gap-filled. Bounds reordering tolerance AND
  /// pending-buffer memory.
  std::size_t late_horizon = 3;
};

/// Monotonic pipeline counters. After flush() the conservation laws hold:
///   ticks_ingested == committed_values + duplicates_dropped + late_dropped
///   committed_values + gaps_filled == committed_steps * group_count
struct FeedStats {
  std::uint64_t ticks_ingested = 0;
  std::uint64_t duplicates_dropped = 0;  ///< step already pending or duplicate seq
  std::uint64_t late_dropped = 0;        ///< arrived after the step resolved
  std::uint64_t committed_values = 0;    ///< steps committed from a real tick
  std::uint64_t gaps_filled = 0;         ///< steps committed by carry-forward
  std::uint64_t committed_steps = 0;     ///< full market rows committed
  std::uint64_t epochs_published = 0;
  /// Always 0: the feed estimates no failure statistics — a plan fits them
  /// from the board's history when it is made. Kept because stats readers
  /// outside the library (the end-to-end benchmark's ledger) report it.
  std::uint64_t estimates_computed = 0;
  /// All-gap group columns dropped from a batch (the group saw no real tick
  /// in the batch, so its board history must not move).
  std::uint64_t columns_withheld = 0;
  /// Batches where EVERY column was all-gap: no epoch bump at all.
  std::uint64_t batches_suppressed = 0;
};

/// One epoch publication, in order.
struct PublishRecord {
  std::uint64_t epoch = 0;
  std::uint64_t rows = 0;       ///< committed rows in this batch
  std::uint64_t end_step = 0;   ///< absolute market length after the batch
  /// The groups whose columns this epoch published — exactly those with at
  /// least one real tick in the batch. Disjoint from the withheld set and
  /// together with it covers the full catalog (the conservation law the
  /// delta tests assert). Never empty: an empty delta suppresses the batch.
  std::vector<CircleGroupSpec> changed_groups;
  /// Wall seconds spent assembling the batch and ingesting it into the board
  /// (monitoring only — never part of the commit digest).
  double publish_seconds = 0.0;
};

class FeedPipeline {
 public:
  /// `board` is borrowed and must outlive the pipeline. The board's current
  /// market primes the timeline: its length is the first feed step and its
  /// last prices seed the gap-fill carry. A sharded serving
  /// tier is fed the same way, through its one board
  /// (ShardedPlanService::fanout()), which every shard plans against.
  FeedPipeline(MarketBoard* board, FeedConfig config);

  FeedPipeline(const FeedPipeline&) = delete;
  FeedPipeline& operator=(const FeedPipeline&) = delete;

  /// Applies one tick on the caller's thread. Thread-safe: any number of
  /// producer threads may call it concurrently (one mutex serializes them).
  /// Per-group FIFO is the caller's contract — feed each group from one
  /// thread, in stream order; determinism is defined over those streams.
  /// A tick outside the catalog or with a negative price throws
  /// PreconditionError to its caller and is not counted.
  void offer(const Tick& tick);
  /// offer()s every tick of `source` on the caller's thread; returns ticks
  /// offered. Multi-producer ingestion is N threads each ingest()ing its own
  /// group shard.
  std::uint64_t ingest(TickSource& source);

  /// Force-resolves every pending observation, commits the remaining rows
  /// (gap-filling groups that are short), and publishes the final partial
  /// batch. Call once every producer has returned: a tick offered after
  /// flush() may land on a step the flush already gap-filled.
  void flush();

  // --- observation ---

  FeedStats stats() const;
  /// Order-sensitive digest over every committed (step, group, price) and
  /// every published (epoch, end_step): the determinism gate's fingerprint.
  std::uint64_t commit_digest() const;
  std::vector<PublishRecord> publish_log() const;
  const FeedConfig& config() const { return config_; }
  /// Absolute market steps committed so far (base + committed_steps).
  std::uint64_t frontier_step() const;

 private:
  struct GroupState {
    CircleGroupSpec group;
    std::uint64_t resolved = 0;           ///< steps resolved past base_step_
    std::uint64_t know = 0;               ///< highest (step + 1) applied
    std::map<std::uint64_t, double> pending;  ///< unresolved observations
    std::deque<std::pair<double, bool>> buf;  ///< resolved, uncommitted (price, is_gap)
    double last_value = 0.0;              ///< gap-fill carry
    std::vector<double> publish_accum;    ///< committed, unpublished prices
    std::uint64_t accum_real = 0;         ///< real (non-gap) values in accum
  };

  void apply_tick_locked(const Tick& tick);
  void resolve_group_locked(GroupState& g);
  void commit_ready_locked();
  void publish_batch_locked();
  void mix(std::uint64_t value);

  MarketBoard* board_;
  FeedConfig config_;
  std::size_t zones_ = 0;
  std::size_t group_count_ = 0;
  std::uint64_t base_step_ = 0;   ///< board market length at construction

  mutable std::mutex mutex_;      ///< guards everything below
  std::vector<GroupState> groups_;
  FeedStats stats_;
  std::uint64_t digest_ = 0x5eedf00d9e3779b9ULL;
  std::uint64_t rows_in_batch_ = 0;
  std::vector<PublishRecord> publish_log_;
};

}  // namespace sompi::feed
