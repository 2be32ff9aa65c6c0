// The per-layer ledger of the traced run.
//
// Times come from calling each layer's public functions from this file, on
// the workload's own inputs, with every call a span:
//
//   net      encode/decode of request and response frames; a warm round
//            trip paired with the in-process try_serve_hit it wraps
//   service  canonicalization, the cache probe, queue wait of solves
//   sharded  ring routing; BoardFanout::ingest of one publication
//   core     the phases of one cold solve: on-demand pick, setup
//            (Monte-Carlo failure estimation), φ intervals, cost tables,
//            branch-and-bound over a full CostTableStore
//   feed     FeedPipeline::offer, publishing and not
//
// Counts come from the census: a fixed, seeded request sequence replayed
// through a fresh deployment, so every count is exact and repeatable. The
// census runs twice and the two must agree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "env.h"
#include "loops.h"
#include "trace.h"

namespace perfbench {

struct LedgerResult {
  Metrics metrics;
  /// Human-readable findings: phase shares, check results.
  std::vector<std::string> notes;
  /// False when a ledger self-check failed (decomposition not equal to the
  /// solve, a probe that should hit missed).
  bool ok = true;
};

/// Times the layers on `d` after its traced phase `traced`;
/// `untraced_p50_s` is the same workload's p50 with tracing off.
LedgerResult layer_ledger(Workload workload, std::uint64_t seed, Deployment& d,
                          const RunLog& traced, double untraced_p50_s, Tracer& tracer);

struct CensusResult {
  Metrics metrics;
  bool repeatable = true;  ///< both census runs agreed exactly
};

CensusResult census(Workload workload, std::uint64_t seed);

}  // namespace perfbench
