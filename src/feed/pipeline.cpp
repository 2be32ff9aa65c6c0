#include "feed/pipeline.h"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/error.h"
#include "common/rng.h"

namespace sompi::feed {

FeedPipeline::FeedPipeline(MarketBoard* board, FeedConfig config)
    : board_(board), config_(config) {
  SOMPI_REQUIRE(board_ != nullptr);
  SOMPI_REQUIRE(config_.publish_every > 0);
  SOMPI_REQUIRE(config_.late_horizon >= 1);

  const MarketSnapshot snap = board_->snapshot();
  const Market& market = *snap.market;
  const Catalog& catalog = market.catalog();
  zones_ = catalog.zones().size();
  group_count_ = catalog.types().size() * zones_;
  SOMPI_REQUIRE_MSG(market.group_count() == group_count_,
                    "board market must cover the full catalog");

  // Delta publication withholds all-gap columns, so board traces may have
  // unequal lengths; the feed timeline restarts at the longest one.
  base_step_ = 0;
  for (std::size_t t = 0; t < catalog.types().size(); ++t)
    for (std::size_t z = 0; z < zones_; ++z)
      base_step_ = std::max<std::uint64_t>(base_step_, market.trace({t, z}).steps());
  groups_.reserve(group_count_);
  for (std::size_t t = 0; t < catalog.types().size(); ++t) {
    for (std::size_t z = 0; z < zones_; ++z) {
      const CircleGroupSpec spec{t, z};
      const SpotTrace& trace = market.trace(spec);
      GroupState g;
      g.group = spec;
      g.know = base_step_;
      g.last_value = trace.empty() ? 0.0 : trace.price(trace.steps() - 1);
      groups_.push_back(std::move(g));
    }
  }
}

void FeedPipeline::mix(std::uint64_t value) {
  std::uint64_t state = digest_ ^ (value + 0x9E3779B97F4A7C15ULL);
  digest_ = splitmix64(state);
}

std::uint64_t FeedPipeline::ingest(TickSource& source) {
  std::uint64_t count = 0;
  while (std::optional<Tick> tick = source.next()) {
    offer(*tick);
    ++count;
  }
  return count;
}

void FeedPipeline::offer(const Tick& tick) {
  std::lock_guard<std::mutex> lock(mutex_);
  apply_tick_locked(tick);
}

void FeedPipeline::apply_tick_locked(const Tick& tick) {
  SOMPI_REQUIRE_MSG(tick.group.type_index * zones_ + tick.group.zone_index < group_count_,
                    "tick group outside the catalog");
  SOMPI_REQUIRE_MSG(tick.price >= 0.0, "tick price must be non-negative");
  ++stats_.ticks_ingested;
  GroupState& g = groups_[group_ordinal(tick.group, zones_)];
  if (tick.step < base_step_ + g.resolved) {
    // The step already froze (committed or gap-filled): a straggler beyond
    // the late horizon, or a duplicate of an already-resolved observation.
    ++stats_.late_dropped;
    return;
  }
  if (g.pending.count(tick.step) != 0) {
    ++stats_.duplicates_dropped;
    return;
  }
  g.pending.emplace(tick.step, tick.price);
  g.know = std::max(g.know, tick.step + 1);
  resolve_group_locked(g);
  commit_ready_locked();
}

void FeedPipeline::resolve_group_locked(GroupState& g) {
  for (;;) {
    const std::uint64_t s = base_step_ + g.resolved;
    const auto it = g.pending.find(s);
    if (it != g.pending.end()) {
      g.buf.emplace_back(it->second, false);
      g.last_value = it->second;
      g.pending.erase(it);
      ++g.resolved;
    } else if (g.know >= s + config_.late_horizon) {
      // The group's own stream ran late_horizon steps past s without an
      // observation: declare it lost and carry the last value forward. This
      // depends only on the group's stream, never on other groups' arrivals.
      g.buf.emplace_back(g.last_value, true);
      ++g.resolved;
    } else {
      return;
    }
  }
}

void FeedPipeline::commit_ready_locked() {
  for (;;) {
    bool ready = true;
    for (const GroupState& g : groups_)
      if (g.buf.empty()) {
        ready = false;
        break;
      }
    if (!ready) return;

    const std::uint64_t step = base_step_ + stats_.committed_steps;
    for (std::size_t ordinal = 0; ordinal < groups_.size(); ++ordinal) {
      GroupState& g = groups_[ordinal];
      const auto [price, is_gap] = g.buf.front();
      g.buf.pop_front();
      if (is_gap) {
        ++stats_.gaps_filled;
      } else {
        ++stats_.committed_values;
        ++g.accum_real;
      }
      g.publish_accum.push_back(price);
      mix(step);
      mix(ordinal);
      mix(std::bit_cast<std::uint64_t>(price));
    }
    ++stats_.committed_steps;
    ++rows_in_batch_;
    if (rows_in_batch_ == config_.publish_every) publish_batch_locked();
  }
}

void FeedPipeline::publish_batch_locked() {
  if (rows_in_batch_ == 0) return;
  const auto started = std::chrono::steady_clock::now();
  // Delta publication: only groups that resolved at least one REAL tick in
  // this batch publish their column. An all-gap column is pure carry-forward
  // — the group heard nothing — and appending it would move that group's
  // board history (changing its failure-model input bits) for no new
  // information, which would defeat warm re-plan table reuse. Whether a
  // column is all-gap depends only on the group's own stream, so the
  // withhold/publish split is deterministic at any producer count.
  std::vector<PriceUpdate> updates;
  std::vector<CircleGroupSpec> changed;
  updates.reserve(groups_.size());
  for (GroupState& g : groups_) {
    if (g.accum_real > 0) {
      changed.push_back(g.group);
      updates.push_back(PriceUpdate{g.group, std::move(g.publish_accum)});
    } else {
      ++stats_.columns_withheld;
    }
    g.publish_accum.clear();
    g.accum_real = 0;
  }
  if (updates.empty()) {
    // Nothing changed anywhere: suppress the batch outright — no epoch bump,
    // no publish record. Suppression is itself deterministic, so skipping
    // the epoch/end_step digest mixes keeps the digest schedule-invariant.
    ++stats_.batches_suppressed;
    rows_in_batch_ = 0;
    return;
  }
  const std::uint64_t epoch = board_->ingest(updates);
  ++stats_.epochs_published;

  PublishRecord record;
  record.epoch = epoch;
  record.rows = rows_in_batch_;
  record.end_step = base_step_ + stats_.committed_steps;
  record.changed_groups = std::move(changed);
  record.publish_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  mix(epoch);
  mix(record.end_step);
  for (const CircleGroupSpec& spec : record.changed_groups)
    mix(group_ordinal(spec, zones_));
  publish_log_.push_back(std::move(record));
  rows_in_batch_ = 0;
}

void FeedPipeline::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Phase 1: force-resolve every pending observation (treat each group's
  // stream as infinitely advanced, so gaps below the last observation fill).
  for (GroupState& g : groups_) {
    while (!g.pending.empty()) {
      const std::uint64_t s = base_step_ + g.resolved;
      const auto it = g.pending.find(s);
      if (it != g.pending.end()) {
        g.buf.emplace_back(it->second, false);
        g.last_value = it->second;
        g.pending.erase(it);
      } else {
        g.buf.emplace_back(g.last_value, true);
      }
      ++g.resolved;
    }
  }
  // Phase 2: equalize — gap-fill short groups up to the longest column so
  // every resolved observation commits. The target is a pure function of the
  // per-group streams, so the flushed tail is deterministic too.
  std::uint64_t target = 0;
  for (const GroupState& g : groups_) target = std::max(target, g.resolved);
  for (GroupState& g : groups_) {
    while (g.resolved < target) {
      g.buf.emplace_back(g.last_value, true);
      ++g.resolved;
    }
  }
  commit_ready_locked();
  publish_batch_locked();
}

FeedStats FeedPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::uint64_t FeedPipeline::commit_digest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return digest_;
}

std::vector<PublishRecord> FeedPipeline::publish_log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return publish_log_;
}

std::uint64_t FeedPipeline::frontier_step() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return base_step_ + stats_.committed_steps;
}

}  // namespace sompi::feed
