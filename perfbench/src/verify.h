// Output checks and plan quality.
//
// The oracle check re-solves every (key, epoch) a run served with
// PlanService::solve — the cold reference solve — on the market frozen at
// that epoch, and compares plan fingerprints byte for byte. Plan quality
// replays a deterministic sample of served plans through the Monte-Carlo
// simulator on a separate, fixed replay market.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/catalog.h"
#include "core/plan.h"
#include "loops.h"
#include "service/plan_service.h"

namespace perfbench {

struct OracleResult {
  std::uint64_t checked = 0;    ///< distinct (key, epoch) pairs re-solved
  std::uint64_t divergent = 0;  ///< pairs whose served plan differs (or has no market)
};

/// Re-solves every pair in `log.served` on up to `threads` threads.
OracleResult check_against_oracle(const sompi::PlanService& oracle, const RunLog& log,
                                  unsigned threads);

struct PlanQuality {
  double plan_cost_usd = 0.0;       ///< mean Plan::expected.cost_usd
  double replay_cost_usd = 0.0;     ///< mean replayed cost
  double deadline_miss_rate = 0.0;  ///< mean replayed miss rate
  std::size_t plans = 0;
};

PlanQuality plan_quality(const sompi::Catalog& catalog,
                         const std::vector<std::shared_ptr<const sompi::Plan>>& sample);

}  // namespace perfbench
