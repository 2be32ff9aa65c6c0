// The benchmark's inputs and the deployment it drives.
//
// World holds the paper catalog, the planning market and the eight paper
// applications. RequestFactory turns the run seed into plan requests over
// an 8 × 8 grid of cells (application × deadline stratum), so every seed
// draws the same mix of applications and deadline ranges and differs only
// in where each deadline falls inside its stratum and which type or zone a
// constrained request drops (the constrained cells sit on two fixed
// diagonals of the grid, a quarter of it). Deployment is what set-up
// builds: a two-shard
// ShardedPlanService at the default OptimizerConfig, a PlanServerLoop over
// it, a router-aware PlanClient with one connection per shard, and, for
// epoch_churn, a FeedPipeline on the tier's BoardFanout.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "cloud/catalog.h"
#include "common/rng.h"
#include "feed/pipeline.h"
#include "net/client.h"
#include "net/server.h"
#include "profile/estimator.h"
#include "service/request.h"
#include "service/sharded/sharded_service.h"
#include "trace/market.h"

namespace perfbench {

enum class Workload { kColdSolve, kWarmHit, kEpochChurn };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload workload);

inline constexpr std::size_t kApps = 8;
inline constexpr std::size_t kStrata = 8;
inline constexpr std::size_t kCells = kApps * kStrata;
inline constexpr double kMinDeadlineFactor = 1.05;
inline constexpr double kMaxDeadlineFactor = 3.0;

/// Request-stream sizes and rates. epoch_churn publishes an epoch every
/// kChurnPublishEvery steps, four a second, and reads at about half the
/// tier's re-plan capacity: 97–108 re-plans/s (three seeds) when the 16
/// keys are re-requested as fast as they answer under 20 epochs/s, measured
/// on a 4-vCPU x86-64 host. The rate is fixed here so every run offers the
/// same load.
inline constexpr std::size_t kColdOutstanding = 2;
inline constexpr std::size_t kWarmWindow = 32;
inline constexpr double kChurnReadsPerSecond = 50.0;
inline constexpr double kChurnStepsPerSecond = 64.0;
inline constexpr std::size_t kChurnPublishEvery = 16;

/// Independent, reproducible streams derived from the run seed.
enum Stream : std::uint64_t {
  kKeyStream = 1,    ///< hot set / working set
  kOrderStream = 2,  ///< which key each warm_hit / epoch_churn request asks for
  kColdStream = 3,   ///< cold_solve's distinct keys
  kTickStream = 4,   ///< hot-group prices
};
std::uint64_t derive_seed(std::uint64_t seed, Stream stream);

/// Two shards; every ServiceConfig and OptimizerConfig knob at its default.
sompi::ShardedConfig tier_config();

struct World {
  World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  sompi::Catalog catalog;
  sompi::ExecTimeEstimator estimator;
  /// Three days of 15-minute spot prices for every (type, zone) group.
  sompi::Market market;
  std::vector<sompi::AppProfile> apps;
  /// Runtime on the fastest on-demand type, per app: the deadline unit.
  std::vector<double> baseline_h;
};

class RequestFactory {
 public:
  RequestFactory(const World* world, std::uint64_t seed);

  /// A request for `cell` (app = cell / kStrata, stratum = cell % kStrata)
  /// at a seeded position inside the stratum and a seeded dropped type or
  /// zone.
  sompi::PlanRequest make(std::size_t cell);
  /// The deadline factor sits at `position` in [0, 1) of the stratum's slice
  /// of [kMinDeadlineFactor, kMaxDeadlineFactor). Cells with
  /// (app + stratum) % 8 == 0 drop one instance type, == 4 one zone: the one
  /// at `drop` in [0, 1) of the catalog's list.
  sompi::PlanRequest make(std::size_t cell, double position, double drop);

  /// The next request of an endless stream of distinct canonical keys:
  /// every block of kCells requests visits each cell once, in seeded order.
  sompi::PlanRequest next_distinct();

  /// One request per cell (warm_hit's hot set).
  std::vector<sompi::PlanRequest> hot_set();

  /// Strata 2 and 5 of every app at their midpoints, the same for every
  /// seed (epoch_churn's working set): its re-plan latencies then depend on
  /// the seeded ticks and read order, not on which deadlines were drawn.
  std::vector<sompi::PlanRequest> working_set();

 private:
  const World* world_;
  sompi::Rng rng_;
  std::vector<std::size_t> block_;
  std::size_t block_pos_ = 0;
  std::unordered_set<std::string> issued_;
};

/// The circle groups whose prices move during epoch_churn: the two that the
/// plans of the hot and working sets use most, so churn moves the winners.
std::vector<sompi::CircleGroupSpec> hot_groups(const sompi::Catalog& catalog);

/// A FeedPipeline on `tier`'s BoardFanout that publishes every
/// kChurnPublishEvery rows. Every group but the hot ones hears one tick
/// beyond the `steps` the caller will offer, so all their steps before it
/// gap-fill at once: rows commit as soon as the hot groups tick them, and
/// the silent columns are withheld. The first step to offer is the
/// market's length.
std::unique_ptr<sompi::feed::FeedPipeline> quiet_feed(sompi::ShardedPlanService& tier,
                                                      std::uint64_t steps);

/// Hot-group ticks for `steps` steps from `start_step`, step-major.
std::vector<sompi::feed::Tick> hot_ticks(const sompi::Catalog& catalog,
                                         std::uint64_t start_step, std::uint64_t steps,
                                         std::uint64_t seed);

struct Deployment {
  std::unique_ptr<World> world;
  std::unique_ptr<sompi::ShardedPlanService> tier;
  std::unique_ptr<sompi::net::PlanServerLoop> server;
  std::unique_ptr<sompi::net::PlanClient> client;
  /// epoch_churn only. Declared after the tier it publishes into.
  std::unique_ptr<sompi::feed::FeedPipeline> feed;
  /// The workload's fixed key set (empty for cold_solve).
  std::vector<sompi::PlanRequest> keys;
  /// keys[i]'s plan, served through the wire during set-up.
  std::vector<std::shared_ptr<const sompi::Plan>> prefilled;
  /// First market step the feed may tick (the planning history's length).
  std::uint64_t feed_base_step = 0;

  /// Sends `requests` in windows of `window` and waits for each window.
  /// Throws std::runtime_error if any request fails or is shed.
  std::vector<sompi::PlanResponse> serve_all(const std::vector<sompi::PlanRequest>& requests,
                                             std::size_t window);
};

/// Builds the deployment for `workload`: world, tier, server, client, the
/// feed (epoch_churn) and the cache pre-fill (warm_hit, epoch_churn).
/// `feed_steps` bounds the steps the feed will be offered, so the silent
/// groups can be told, once, that their streams are quiet until then.
/// Throws std::runtime_error if a pre-fill request fails.
Deployment deploy(Workload workload, std::uint64_t seed, std::uint64_t feed_steps);

}  // namespace perfbench
