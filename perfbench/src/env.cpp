#include "env.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "core/ondemand.h"
#include "feed/tick.h"
#include "feed/tick_source.h"
#include "profile/paper_profiles.h"

namespace perfbench {

using namespace sompi;

namespace {

constexpr std::uint64_t kMarketSeed = 2015;
constexpr double kMarketDays = 3.0;
constexpr double kStepHours = 0.25;

}  // namespace

ShardedConfig tier_config() {
  ShardedConfig config;
  config.shards = 2;
  config.vnodes = 64;
  config.salt = 0x5EED5A17ULL;
  // Everything else, including ServiceConfig::opt, stays at its default:
  // k = 4, K = 8, 7 logarithmic bid levels, 2000 failure samples.
  return config;
}

std::optional<Workload> parse_workload(const std::string& name) {
  if (name == "cold_solve") return Workload::kColdSolve;
  if (name == "warm_hit") return Workload::kWarmHit;
  if (name == "epoch_churn") return Workload::kEpochChurn;
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kColdSolve: return "cold_solve";
    case Workload::kWarmHit: return "warm_hit";
    case Workload::kEpochChurn: return "epoch_churn";
  }
  return "?";
}

std::uint64_t derive_seed(std::uint64_t seed, Stream stream) {
  std::uint64_t state = seed ^ (stream * 0xD1B54A32D192ED03ULL);
  return splitmix64(state);
}

World::World()
    : catalog(paper_catalog()),
      market(generate_market(catalog, paper_market_profile(catalog), kMarketDays, kStepHours,
                             kMarketSeed)),
      apps(paper_profiles()) {
  apps.push_back(lammps_profile(32));
  apps.push_back(lammps_profile(128));
  const OnDemandSelector selector(&catalog, &estimator);
  for (const AppProfile& app : apps) baseline_h.push_back(selector.baseline(app).t_h);
}

RequestFactory::RequestFactory(const World* world, std::uint64_t seed)
    : world_(world), rng_(seed), block_(kCells) {
  std::iota(block_.begin(), block_.end(), std::size_t{0});
  block_pos_ = kCells;
}

PlanRequest RequestFactory::make(std::size_t cell) {
  const double position = rng_.uniform();
  return make(cell, position, rng_.uniform());
}

PlanRequest RequestFactory::make(std::size_t cell, double position, double drop) {
  const std::size_t app = cell / kStrata;
  const std::size_t stratum = cell % kStrata;
  const double width = (kMaxDeadlineFactor - kMinDeadlineFactor) / kStrata;
  const double factor =
      kMinDeadlineFactor + width * (static_cast<double>(stratum) + position);

  PlanRequest request;
  request.app = world_->apps[app];
  request.deadline_h = world_->baseline_h[app] * factor;
  // A quarter of the cells, on two diagonals of the grid, are constrained.
  const std::size_t diagonal = (app + stratum) % 8;
  const auto dropped = [&](std::size_t n) { return static_cast<std::size_t>(drop * n); };
  if (diagonal == 0) {
    const std::size_t types = world_->catalog.types().size();
    for (std::size_t t = 0; t < types; ++t)
      if (t != dropped(types)) request.allowed_types.push_back(world_->catalog.type(t).name);
  } else if (diagonal == 4) {
    const std::size_t zones = world_->catalog.zones().size();
    for (std::size_t z = 0; z < zones; ++z)
      if (z != dropped(zones)) request.allowed_zones.push_back(world_->catalog.zone(z).name);
  }
  return request;
}

PlanRequest RequestFactory::next_distinct() {
  for (;;) {
    if (block_pos_ == kCells) {
      for (std::size_t i = kCells - 1; i > 0; --i)
        std::swap(block_[i], block_[rng_.uniform_index(i + 1)]);
      block_pos_ = 0;
    }
    PlanRequest request = make(block_[block_pos_++]);
    if (issued_.insert(canonical_key(canonicalized(request))).second) return request;
  }
}

std::vector<PlanRequest> RequestFactory::hot_set() {
  std::vector<PlanRequest> keys;
  for (std::size_t cell = 0; cell < kCells; ++cell) keys.push_back(make(cell));
  return keys;
}

std::vector<PlanRequest> RequestFactory::working_set() {
  std::vector<PlanRequest> keys;
  for (std::size_t app = 0; app < kApps; ++app)
    for (const std::size_t stratum : {2, 5})
      keys.push_back(make(app * kStrata + stratum, 0.5, 0.5));
  return keys;
}

std::vector<CircleGroupSpec> hot_groups(const Catalog& catalog) {
  const auto find = [&](const std::string& type, const std::string& zone) {
    for (const CircleGroupSpec& spec : catalog.all_groups())
      if (catalog.type(spec.type_index).name == type &&
          catalog.zone(spec.zone_index).name == zone)
        return spec;
    throw std::runtime_error("no circle group " + type + "@" + zone);
  };
  return {find("m1.small", "us-east-1b"), find("cc2.8xlarge", "us-east-1a")};
}

std::unique_ptr<feed::FeedPipeline> quiet_feed(ShardedPlanService& tier, std::uint64_t steps) {
  feed::FeedConfig config;
  config.publish_every = kChurnPublishEvery;
  auto feed = std::make_unique<feed::FeedPipeline>(&tier.fanout(), config);
  const MarketSnapshot snapshot = tier.board(0).snapshot();
  const Market& market = *snapshot.market;
  const Catalog& catalog = market.catalog();
  const std::vector<CircleGroupSpec> hot = hot_groups(catalog);
  const std::size_t group_count = catalog.all_groups().size();
  const std::size_t zones = catalog.zones().size();
  const std::uint64_t quiet_step =
      market.trace(CircleGroupSpec{0, 0}).steps() + steps + config.late_horizon;
  for (const CircleGroupSpec& spec : catalog.all_groups()) {
    if (std::find(hot.begin(), hot.end(), spec) != hot.end()) continue;
    const SpotTrace& trace = market.trace(spec);
    feed::Tick tick;
    tick.group = spec;
    tick.step = quiet_step;
    tick.seq = feed::canonical_seq(quiet_step, feed::group_ordinal(spec, zones), group_count);
    tick.price = trace.price(trace.steps() - 1);
    feed->offer(tick);
  }
  return feed;
}

std::vector<feed::Tick> hot_ticks(const Catalog& catalog, std::uint64_t start_step,
                                  std::uint64_t steps, std::uint64_t seed) {
  feed::SyntheticTickSource::Config config;
  config.seed = seed;
  config.start_step = start_step;
  config.steps = steps;
  feed::SyntheticTickSource source(&catalog, hot_groups(catalog), config);
  std::vector<feed::Tick> ticks;
  while (std::optional<feed::Tick> tick = source.next()) ticks.push_back(*tick);
  return ticks;
}

std::vector<PlanResponse> Deployment::serve_all(const std::vector<PlanRequest>& requests,
                                                std::size_t window) {
  std::vector<PlanResponse> responses(requests.size());
  for (std::size_t from = 0; from < requests.size(); from += window) {
    const std::size_t to = std::min(requests.size(), from + window);
    const std::vector<std::uint64_t> ids = client->submit_batch(
        std::vector<PlanRequest>(requests.begin() + from, requests.begin() + to));
    client->drain();
    std::map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < ids.size(); ++i) index[ids[i]] = from + i;
    for (net::ClientCompletion& done : client->harvest()) {
      if (!done.error.empty() || done.response.plan == nullptr)
        throw std::runtime_error("request failed: " +
                                 (done.error.empty() ? std::string("shed") : done.error));
      responses[index.at(done.request_id)] = std::move(done.response);
    }
  }
  return responses;
}

Deployment deploy(Workload workload, std::uint64_t seed, std::uint64_t feed_steps) {
  Deployment d;
  d.world = std::make_unique<World>();
  d.tier = std::make_unique<ShardedPlanService>(&d.world->catalog, &d.world->estimator,
                                                d.world->market, tier_config());
  d.server = std::make_unique<net::PlanServerLoop>(d.tier.get(), net::ServerConfig{});
  d.client = std::make_unique<net::PlanClient>(d.server.get(), net::ClientMode::kRouted);

  RequestFactory factory(d.world.get(), derive_seed(seed, kKeyStream));
  if (workload == Workload::kWarmHit) d.keys = factory.hot_set();
  if (workload == Workload::kEpochChurn) d.keys = factory.working_set();

  if (workload == Workload::kEpochChurn) {
    d.feed_base_step = d.world->market.trace(CircleGroupSpec{0, 0}).steps();
    d.feed = quiet_feed(*d.tier, feed_steps);
  }

  if (!d.keys.empty()) {
    for (PlanResponse& response : d.serve_all(d.keys, d.keys.size()))
      d.prefilled.push_back(std::move(response.plan));
  }
  return d;
}

}  // namespace perfbench
