#include "core/optimizer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "common/combinatorics.h"
#include "common/error.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/schedule.h"

namespace sompi {

namespace {

void hash_mix(std::uint64_t& h, std::uint64_t v) {
  std::uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL);
  h = splitmix64(s);
}

void hash_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  hash_mix(h, bits);
}

void hash_string(std::uint64_t& h, const std::string& s) {
  hash_mix(h, s.size());
  for (const char c : s) hash_mix(h, static_cast<unsigned char>(c));
}

}  // namespace

std::uint64_t replan_config_hash(const OptimizerConfig& config, const AppProfile& app,
                                 const OnDemandChoice& od, double deadline_h) {
  std::uint64_t h = 0x7AB1E5EEDULL;
  hash_double(h, deadline_h);
  // The app profile: T_i/O_i/R_i derive from it through the estimator. A
  // store must only be shared across solvers with the same catalog and
  // estimator — those are identities, not values, so they are the caller's
  // contract rather than part of the hash.
  hash_string(h, app.name);
  hash_mix(h, static_cast<std::uint64_t>(app.category));
  hash_mix(h, static_cast<std::uint64_t>(app.processes));
  hash_double(h, app.instr_gi);
  hash_double(h, app.comm_gb);
  hash_double(h, app.msgs_per_rank);
  hash_double(h, app.io_seq_gb);
  hash_double(h, app.io_rand_gb);
  hash_double(h, app.state_gb);
  // The on-demand tier: φ and the guard tables see it.
  hash_mix(h, od.type_index);
  hash_double(h, od.t_h);
  hash_mix(h, static_cast<std::uint64_t>(od.instances));
  hash_double(h, od.rate_usd_h);
  hash_mix(h, od.feasible ? 1 : 0);
  hash_double(h, config.slack);
  // Problem-construction knobs (the bid grid and the failure estimator).
  hash_double(h, config.setup.step_hours);
  hash_mix(h, static_cast<std::uint64_t>(config.setup.bid_grid));
  hash_mix(h, config.setup.log_levels);
  hash_mix(h, config.setup.uniform_points);
  hash_double(h, config.setup.max_bid_over_ondemand);
  hash_mix(h, config.setup.failure.samples);
  hash_mix(h, config.setup.failure.horizon_steps);
  hash_mix(h, config.setup.failure.seed);
  // Search knobs that shape artifact content.
  hash_mix(h, config.ratio_bins);
  hash_mix(h, static_cast<std::uint64_t>(config.phi_mode));
  hash_mix(h, config.worst_case_guard ? 1 : 0);
  // The EFFECTIVE policy list: an empty config means the degenerate {s3}.
  std::vector<CkptPolicy> policies = config.ckpt_policies;
  if (policies.empty()) policies.push_back(CkptPolicy{});
  hash_mix(h, policies.size());
  for (const CkptPolicy& pol : policies) {
    hash_string(h, pol.name);
    hash_double(h, pol.o_scale);
    hash_double(h, pol.r_scale);
  }
  return h;
}

SompiOptimizer::SompiOptimizer(const Catalog* catalog, const ExecTimeEstimator* estimator,
                               OptimizerConfig config)
    : catalog_(catalog), estimator_(estimator), config_(std::move(config)) {
  SOMPI_REQUIRE(catalog_ != nullptr && estimator_ != nullptr);
  SOMPI_REQUIRE(config_.max_groups >= 1);
  SOMPI_REQUIRE(config_.max_candidates >= 1);
}

Plan SompiOptimizer::optimize(const AppProfile& app, const Market& history,
                              double deadline_h) const {
  return optimize(app, history, deadline_h, nullptr);
}

Plan SompiOptimizer::optimize(const AppProfile& app, const Market& history, double deadline_h,
                              ReplanContext* ctx) const {
  SOMPI_REQUIRE(deadline_h > 0.0);
  // The on-demand tier first: it depends only on (app, deadline, slack), and
  // the warm setup lookup hashes it.
  const OnDemandSelector od_selector(catalog_, estimator_);
  const OnDemandChoice od = od_selector.select(app, deadline_h, config_.slack);

  // SetupBuilder::build_candidates, with the per-group build routed through
  // the warm store: same specs, same order, same deadline cutoff.
  std::vector<GroupSetup> candidates;
  for (const CircleGroupSpec& spec : catalog_->all_groups()) {
    const double t_h = estimator_->hours(app, catalog_->type(spec.type_index),
                                         catalog_->zone(spec.zone_index).name);
    if (t_h > deadline_h) continue;  // cannot complete before the deadline
    candidates.push_back(setup_for(app, spec, history, od, deadline_h, ctx));
  }

  return optimize_over(app, std::move(candidates), od, deadline_h, ctx);
}

GroupSetup SompiOptimizer::setup_for(const AppProfile& app, const CircleGroupSpec& spec,
                                     const Market& history, const OnDemandChoice& od,
                                     double deadline_h, ReplanContext* ctx) const {
  const SetupBuilder builder(catalog_, estimator_);
  if (ctx == nullptr || !ctx->usable()) return builder.build(app, spec, history, config_.setup);

  const std::size_t zones = catalog_->zones().size();
  const std::uint64_t version = ctx->versions->at(spec.type_index * zones + spec.zone_index);
  const std::uint64_t chash = replan_config_hash(config_, app, od, deadline_h);
  if (const auto art = ctx->store->lookup(ctx->scope, spec, version, chash))
    return art->setup;

  // Store a setup-only artifact immediately: even if this group is pruned
  // from the search below max_candidates, the next epoch skips its
  // Monte-Carlo failure estimation — the dominant cold-solve cost.
  auto art = std::make_shared<GroupArtifact>(version, builder.build(app, spec, history,
                                                                   config_.setup));
  GroupSetup setup = art->setup;
  ctx->store->store(ctx->scope, spec, chash, std::move(art));
  return setup;
}

Plan SompiOptimizer::optimize_over(const AppProfile& app, std::vector<GroupSetup> candidates,
                                   const OnDemandChoice& od, double deadline_h) const {
  return optimize_over(app, std::move(candidates), od, deadline_h, nullptr);
}

Plan SompiOptimizer::optimize_over(const AppProfile& app, std::vector<GroupSetup> candidates,
                                   const OnDemandChoice& od, double deadline_h,
                                   ReplanContext* ctx) const {
  const auto t_begin = std::chrono::steady_clock::now();

  Plan plan;
  plan.app = app.name;
  plan.step_hours = config_.setup.step_hours;
  plan.deadline_h = deadline_h;
  plan.state_gb = app.state_gb;
  plan.od = od;

  // Prune the candidate pool: keep the groups with the lowest expected
  // full-run spot cost (expected price at the top bid × instances × T_i).
  if (candidates.size() > config_.max_candidates) {
    std::vector<std::size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), 0);
    auto score = [&](std::size_t i) {
      const auto& g = candidates[i];
      const std::size_t top = g.failure.bid_count() - 1;
      return g.failure.expected_price(top) * g.instances * g.t_steps;
    };
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return score(a) < score(b); });
    std::vector<GroupSetup> kept;
    kept.reserve(config_.max_candidates);
    for (std::size_t i = 0; i < config_.max_candidates; ++i)
      kept.push_back(std::move(candidates[order[i]]));
    candidates = std::move(kept);
  }

  // Checkpoint-level policies (DESIGN.md §11). An empty config list is the
  // degenerate single-policy set {s3}. Each group's composite choice index is
  //   c = p · bid_count(g) + b,
  // so with one policy c == b: enumeration order, tuple radices, colex ranks
  // and logical evaluation counts all coincide with the pre-multilevel scan.
  std::vector<CkptPolicy> policies = config_.ckpt_policies;
  if (policies.empty()) policies.push_back(CkptPolicy{});
  const std::size_t n_pol = policies.size();
  const auto choice_count = [&](std::size_t g) {
    return n_pol * candidates[g].failure.bid_count();
  };
  const auto decode = [&](std::size_t g, std::size_t c,
                          const std::vector<std::vector<int>>& f_of) {
    const std::size_t bids = candidates[g].failure.bid_count();
    const std::size_t p = c / bids;
    return GroupDecision{c % bids, f_of[g][c], policies[p].o_scale,
                         policies[p].r_scale, p};
  };

  // Warm start (DESIGN.md §14): resolve each kept candidate's cached
  // artifact. A hit whose shape matches the current composite choice space
  // lets every derived table below — φ intervals, guard tables, and (for the
  // incremental engine) the GroupCostTable block — be reused bit-identically
  // instead of recomputed; everything else is computed as on the cold path
  // and stored back for the next epoch.
  const bool warm = ctx != nullptr && ctx->usable();
  const std::uint64_t chash = warm ? replan_config_hash(config_, app, od, deadline_h) : 0;
  const std::size_t zone_count = catalog_->zones().size();
  const auto version_of = [&](const CircleGroupSpec& spec) {
    return ctx->versions->at(spec.type_index * zone_count + spec.zone_index);
  };
  std::vector<std::shared_ptr<const GroupArtifact>> arts(candidates.size());
  if (warm)
    for (std::size_t g = 0; g < candidates.size(); ++g)
      arts[g] = ctx->store->lookup(ctx->scope, candidates[g].spec,
                                   version_of(candidates[g].spec), chash);
  const auto derived_ok = [&](std::size_t g) {
    const auto& a = arts[g];
    return a != nullptr && a->has_derived() && a->f_of.size() == choice_count(g) &&
           a->f_guard_max.size() == n_pol && a->fits.size() == choice_count(g) &&
           a->surv_ok.size() == choice_count(g);
  };

  // Dimension reduction: F_i = φ_i(P_i), precomputed per composite
  // (group, policy, bid) choice — φ sees the policy's effective O/R.
  CheckpointPlanner::Config phi_cfg;
  phi_cfg.mode = config_.phi_mode;
  phi_cfg.step_hours = config_.setup.step_hours;
  phi_cfg.ratio_bins = config_.ratio_bins;
  const CheckpointPlanner phi(phi_cfg);
  std::vector<std::vector<int>> f_of(candidates.size());
  parallel_for(candidates.size(), config_.threads, [&](std::size_t i) {
    if (warm && derived_ok(i)) {
      f_of[i] = arts[i]->f_of;
      return;
    }
    const std::size_t bids = candidates[i].failure.bid_count();
    f_of[i].resize(n_pol * bids);
    for (std::size_t c = 0; c < f_of[i].size(); ++c) {
      const CkptPolicy& pol = policies[c / bids];
      f_of[i][c] = phi.choose(candidates[i], c % bids, od, pol.o_scale, pol.r_scale);
    }
  });

  const CostModel::Config model_cfg{.step_hours = config_.setup.step_hours,
                                    .ratio_bins = config_.ratio_bins};
  const double step_h = config_.setup.step_hours;

  // Worst-case completion time of a group killed at its most damaging
  // instant, recovering from its last checkpoint on the on-demand tier:
  // max over t of (t + Ratio(t)·T_od). The max over all groups bounds the
  // joint worst case of any plan: if every group dies at time t_i,
  //   Time <= max_i t_i + T_od·min_i Ratio_i(t_i) <= max_i (t_i + T_od·Ratio_i(t_i)).
  const auto group_worst_h = [&](const GroupSetup& g, int f_steps, double o_scale,
                                 double r_scale) {
    const GroupSchedule sched(g.t_steps, f_steps, g.o_steps * o_scale,
                              g.r_steps * r_scale);
    const double w = sched.wall_duration();
    double worst = w * step_h;  // clean completion
    for (std::size_t t = 0; t < static_cast<std::size_t>(std::ceil(w)); ++t) {
      const double candidate =
          static_cast<double>(t) * step_h + sched.ratio_at(static_cast<double>(t)) * od.t_h;
      worst = std::max(worst, candidate);
    }
    return worst;
  };

  // Largest checkpoint interval whose worst case still fits the deadline —
  // the guard-clamped alternative tried for single-group plans. worst(F) is
  // monotone in F (fewer checkpoints → more redone work), so binary search.
  // The clamp depends on the policy's effective O/R, so it is per (group,
  // policy), indexed g·n_pol + p.
  std::vector<int> f_guard_max(candidates.size() * n_pol, 0);
  if (config_.worst_case_guard) {
    parallel_for(candidates.size() * n_pol, config_.threads, [&](std::size_t idx) {
      if (warm && derived_ok(idx / n_pol)) {
        f_guard_max[idx] = arts[idx / n_pol]->f_guard_max[idx % n_pol];
        return;
      }
      const GroupSetup& g = candidates[idx / n_pol];
      const CkptPolicy& pol = policies[idx % n_pol];
      if (group_worst_h(g, 1, pol.o_scale, pol.r_scale) > deadline_h)
        return;  // even F = 1 unsafe
      int lo = 1, hi = g.t_steps;
      while (lo < hi) {
        const int mid = lo + (hi - lo + 1) / 2;
        if (group_worst_h(g, mid, pol.o_scale, pol.r_scale) <= deadline_h) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      f_guard_max[idx] = lo;
    });
  }

  const std::size_t k_max =
      std::min<std::size_t>(config_.max_groups, candidates.size());
  const std::size_t k_min = config_.enumerate_smaller_subsets ? 1 : k_max;

  // Materialize the k-of-K subsets in enumeration order so they can be
  // searched independently. The per-subset bid-tuple scan below is the
  // serial algorithm verbatim; the cross-subset winner is reduced with a
  // total order (cost, then enumeration rank), so the chosen plan does not
  // depend on how the subsets were scheduled across threads.
  std::vector<std::vector<std::size_t>> subsets;
  for (std::size_t k = k_min; k <= k_max; ++k)
    for_each_combination(candidates.size(), k,
                         [&](const std::vector<std::size_t>& s) { subsets.push_back(s); });

  struct SubsetBest {
    double cost = std::numeric_limits<double>::infinity();
    std::size_t order = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> subset;
    std::vector<GroupDecision> decisions;
    Expectation expectation;
    /// Logical evaluation count of the exhaustive scan — invariant under
    /// engine/pruning/threads, feeds Plan::model_evaluations (fingerprint).
    std::size_t evaluations = 0;
    /// What the engine actually did (Plan::stats; fingerprint-excluded).
    PlanStats stats;
  };

  // Per-(group, composite-choice) guard tables, hoisted out of the tuple
  // loop: the reference scan recomputes group_worst_h (an O(wall) scan) per
  // tuple per group; both the deadline-fit and the survival-vs-0.5 test
  // depend only on the (group, policy, bid) triple once F is tied to them.
  std::vector<std::size_t> choice_off(candidates.size() + 1, 0);
  for (std::size_t g = 0; g < candidates.size(); ++g)
    choice_off[g + 1] = choice_off[g] + choice_count(g);
  std::vector<unsigned char> fits(choice_off.back(), 1);
  std::vector<unsigned char> surv_ok(choice_off.back(), 1);
  if (config_.worst_case_guard) {
    parallel_for(candidates.size(), config_.threads, [&](std::size_t g) {
      if (warm && derived_ok(g)) {
        std::copy(arts[g]->fits.begin(), arts[g]->fits.end(), fits.begin() + choice_off[g]);
        std::copy(arts[g]->surv_ok.begin(), arts[g]->surv_ok.end(),
                  surv_ok.begin() + choice_off[g]);
        return;
      }
      const GroupSetup& grp = candidates[g];
      const std::size_t bids = grp.failure.bid_count();
      for (std::size_t c = 0; c < choice_count(g); ++c) {
        const CkptPolicy& pol = policies[c / bids];
        const GroupSchedule sched(grp.t_steps, f_of[g][c],
                                  grp.o_steps * pol.o_scale,
                                  grp.r_steps * pol.r_scale);
        fits[choice_off[g] + c] =
            group_worst_h(grp, f_of[g][c], pol.o_scale, pol.r_scale) <= deadline_h;
        surv_ok[choice_off[g] + c] =
            !(grp.failure.survival_at(c % bids, sched.wall_duration()) < 0.5);
      }
    });
  }

  // Exhaustive-scan evaluation count for one subset, in closed form. The
  // reference engine evaluates (a) every all-fit tuple, (b) for k >= 2,
  // every tuple with some unfit digit whose groups all pass the survival
  // test, and (c) for k == 1, the guard-clamped second shot per bid where
  // the clamp is active. With the guard off, every tuple is evaluated.
  const auto logical_evaluations = [&](const std::vector<std::size_t>& subset) {
    if (!config_.worst_case_guard) {
      std::size_t n = 1;
      for (std::size_t g : subset) n *= choice_count(g);
      return n;
    }
    std::size_t n_fit = 1, n_surv = 1, n_surv_fit = 1;
    for (std::size_t g : subset) {
      std::size_t fit = 0, surv = 0, both = 0;
      for (std::size_t c = 0; c < choice_count(g); ++c) {
        fit += fits[choice_off[g] + c];
        surv += surv_ok[choice_off[g] + c];
        both += fits[choice_off[g] + c] & surv_ok[choice_off[g] + c];
      }
      n_fit *= fit;
      n_surv *= surv;
      n_surv_fit *= both;
    }
    std::size_t n = n_fit;
    if (subset.size() >= 2) n += n_surv - n_surv_fit;
    if (subset.size() == 1 && config_.phi_mode != PhiMode::kDisabled) {
      const std::size_t g = subset[0];
      const std::size_t bids = candidates[g].failure.bid_count();
      for (std::size_t c = 0; c < choice_count(g); ++c) {
        const int clamp = f_guard_max[g * n_pol + c / bids];
        n += clamp >= 1 && clamp < f_of[g][c];
      }
    }
    return n;
  };

  const auto eval_subset_reference = [&](std::size_t task) {
    const std::vector<std::size_t>& subset = subsets[task];
    const std::size_t k = subset.size();
    SubsetBest best;
    best.order = task;
    best.stats.subsets_searched = 1;

    std::vector<const GroupSetup*> view;
    std::vector<std::size_t> radices;
    view.reserve(k);
    radices.reserve(k);
    for (std::size_t i : subset) {
      view.push_back(&candidates[i]);
      radices.push_back(n_pol * candidates[i].failure.bid_count());
    }
    const CostModel model(std::move(view), od, model_cfg);

    std::vector<GroupDecision> decisions(k);
    const auto consider = [&](const std::vector<GroupDecision>& d) {
      if (config_.worst_case_guard) {
        double worst = 0.0;
        for (std::size_t i = 0; i < k; ++i)
          worst = std::max(worst, group_worst_h(candidates[subset[i]], d[i].f_steps,
                                                d[i].o_scale, d[i].r_scale));
        if (worst > deadline_h) {
          // Worst case does not fit: only GENUINE replication may stand in
          // — at least two replicas, each individually likely to finish
          // (no phantom replicas whose bid dies on arrival), with the
          // joint wipeout below the tolerance. A lone group must not pass
          // here: a short history window can miss rare spikes entirely
          // and report survival 1.0.
          if (k < 2) return;
          for (std::size_t i = 0; i < k; ++i) {
            const GroupSetup& g = candidates[subset[i]];
            const GroupSchedule sched(g.t_steps, d[i].f_steps,
                                      g.o_steps * d[i].o_scale,
                                      g.r_steps * d[i].r_scale);
            if (g.failure.survival_at(d[i].bid_index, sched.wall_duration()) < 0.5) return;
          }
          const Expectation e = model.evaluate(d);
          ++best.evaluations;
          ++best.stats.evaluations;
          const double p_all_fail = 1.0 - e.p_complete_on_spot;
          if (p_all_fail > config_.miss_tolerance) return;
          if (e.time_h <= deadline_h && e.cost_usd < best.cost) {
            best.cost = e.cost_usd;
            best.subset = subset;
            best.decisions = d;
            best.expectation = e;
          }
          return;
        }
      }
      const Expectation e = model.evaluate(d);
      ++best.evaluations;
      ++best.stats.evaluations;
      if (e.time_h <= deadline_h && e.cost_usd < best.cost) {
        best.cost = e.cost_usd;
        best.subset = subset;
        best.decisions = d;
        best.expectation = e;
      }
    };

    for_each_tuple(radices, [&](const std::vector<std::size_t>& digits) {
      ++best.stats.tuples_visited;
      for (std::size_t i = 0; i < k; ++i)
        decisions[i] = decode(subset[i], digits[i], f_of);
      consider(decisions);

      // Single-group plans get a second shot with the guard-clamped
      // interval: denser checkpoints buy worst-case deadline safety.
      // (Not when checkpointing is ablated away — the clamp would
      // silently re-enable it.)
      if (config_.worst_case_guard && k == 1 && config_.phi_mode != PhiMode::kDisabled) {
        const int clamp = f_guard_max[subset[0] * n_pol + decisions[0].policy_index];
        if (clamp >= 1 && clamp < decisions[0].f_steps) {
          std::vector<GroupDecision> clamped = decisions;
          clamped[0].f_steps = clamp;
          consider(clamped);
        }
      }
    });
    return best;
  };

  // --- Incremental engine (DESIGN.md "Optimizer fast path"). ---
  // Per-(group, bid) kernels precomputed once over the full candidate list;
  // per-subset searches walk a lex-order odometer with per-prefix cached
  // fold state and cut subtrees whose admissible cost bound exceeds the
  // cross-subset incumbent. Plans are bit-identical to the reference scan.
  std::optional<CostTables> tables;
  std::size_t tables_reused = 0;
  std::size_t tables_built = 0;
  if (config_.engine == SearchEngine::kIncremental && !candidates.empty()) {
    // Per-group table blocks: a warm artifact's block is adopted as-is (it
    // is a pure function of inputs the version + config hash pin), the rest
    // are built exactly as on the cold path. Reuse is decided up front so
    // the counters stay exact and the parallel build races nothing.
    std::vector<unsigned char> reuse(candidates.size(), 0);
    for (std::size_t g = 0; g < candidates.size(); ++g) {
      reuse[g] = warm && derived_ok(g) && arts[g]->table != nullptr &&
                 arts[g]->table->choice_count() == choice_count(g);
      reuse[g] ? ++tables_reused : ++tables_built;
    }
    std::vector<std::shared_ptr<const GroupCostTable>> blocks(candidates.size());
    parallel_for(candidates.size(), config_.threads, [&](std::size_t g) {
      if (reuse[g]) {
        blocks[g] = arts[g]->table;
        return;
      }
      const std::size_t bids = candidates[g].failure.bid_count();
      std::vector<ChoiceSpec> choices(choice_count(g));
      for (std::size_t c = 0; c < choices.size(); ++c) {
        const std::size_t p = c / bids;
        choices[c] = ChoiceSpec{c % bids, f_of[g][c], policies[p].o_scale,
                                policies[p].r_scale, p};
      }
      blocks[g] = std::make_shared<const GroupCostTable>(candidates[g], od, model_cfg, choices);
    });
    tables.emplace(candidates, od, model_cfg, std::move(blocks));
  }

  // Store back every artifact this solve had to (re)build, so the next
  // epoch's clean groups start fully warm. Incremental solves store the
  // table block too; reference solves leave it null (a later incremental
  // solve rebuilds just the block from the cached setup).
  if (warm) {
    for (std::size_t g = 0; g < candidates.size(); ++g) {
      const bool fully_cached =
          derived_ok(g) && (!tables.has_value() || arts[g]->table != nullptr);
      if (fully_cached) continue;
      auto art = std::make_shared<GroupArtifact>(version_of(candidates[g].spec), candidates[g]);
      art->f_of = f_of[g];
      art->f_guard_max.assign(f_guard_max.begin() + static_cast<std::ptrdiff_t>(g * n_pol),
                              f_guard_max.begin() + static_cast<std::ptrdiff_t>((g + 1) * n_pol));
      art->fits.assign(fits.begin() + static_cast<std::ptrdiff_t>(choice_off[g]),
                       fits.begin() + static_cast<std::ptrdiff_t>(choice_off[g + 1]));
      art->surv_ok.assign(surv_ok.begin() + static_cast<std::ptrdiff_t>(choice_off[g]),
                          surv_ok.begin() + static_cast<std::ptrdiff_t>(choice_off[g + 1]));
      if (tables.has_value()) art->table = tables->block(g);
      ctx->store->store(ctx->scope, candidates[g].spec, chash, std::move(art));
    }
  }

  // Best accepted cost seen by any subset so far. Any accepted candidate's
  // cost upper-bounds the final plan cost, so pruning strictly above it is
  // safe no matter how threads interleave; only the prune *counters* are
  // schedule-dependent (hence Plan::stats is fingerprint-excluded).
  std::atomic<double> incumbent{std::numeric_limits<double>::infinity()};
  const auto offer_incumbent = [&incumbent](double cost) {
    double cur = incumbent.load(std::memory_order_relaxed);
    while (cost < cur &&
           !incumbent.compare_exchange_weak(cur, cost, std::memory_order_relaxed)) {
    }
  };

  // Incumbent seeding: re-cost the previous epoch's winning plan under the
  // CURRENT tables and, if it is still an acceptable tuple of the current
  // search space, start the incumbent there instead of at infinity. Safe by
  // admissibility: the true winner costs at most the seed (the seed tuple is
  // itself enumerated and acceptable), bounds never exceed true costs, and
  // pruning is strictly-above-incumbent — so the winner's subtree is never
  // cut and equal-cost ties resolve through the untouched acceptance logic.
  // Any mapping failure (group no longer a candidate, bid fell off the grid,
  // guard-clamped interval, policy set changed) just skips the seed.
  std::size_t warm_seeds = 0;
  if (warm && ctx->incumbent != nullptr && ctx->incumbent->uses_spot() &&
      config_.prune && tables.has_value()) {
    const Plan& prev = *ctx->incumbent;
    const std::size_t k = prev.groups.size();
    bool ok = k >= k_min && k <= k_max;
    std::vector<std::pair<std::size_t, std::size_t>> mapped;  // (candidate, choice)
    for (const GroupPlan& gp : prev.groups) {
      if (!ok) break;
      std::size_t ci = candidates.size();
      for (std::size_t i = 0; i < candidates.size(); ++i)
        if (candidates[i].spec.type_index == gp.spec.type_index &&
            candidates[i].spec.zone_index == gp.spec.zone_index) {
          ci = i;
          break;
        }
      if (ci == candidates.size()) {
        ok = false;
        break;
      }
      const GroupSetup& g = candidates[ci];
      std::size_t p = n_pol;
      for (std::size_t q = 0; q < n_pol; ++q)
        if (policies[q].name == gp.ckpt_policy) {
          p = q;
          break;
        }
      const std::size_t bids = g.failure.bid_count();
      std::size_t b = bids;
      for (std::size_t j = 0; j < bids; ++j)
        if (g.failure.bid(j) == gp.bid_usd) {
          b = j;
          break;
        }
      // Every field must match the tuple EXACTLY (bit-exact doubles): the
      // seed must be a tuple the engine itself would evaluate from the
      // tables, or its cost could undercut every real tuple and prune the
      // true winner.
      if (p == n_pol || b == bids || g.instances != gp.instances ||
          g.t_steps != gp.t_steps || f_of[ci][p * bids + b] != gp.f_steps ||
          g.o_steps * policies[p].o_scale != gp.o_steps ||
          g.r_steps * policies[p].r_scale != gp.r_steps) {
        ok = false;
        break;
      }
      mapped.emplace_back(ci, p * bids + b);
    }
    if (ok) {
      std::sort(mapped.begin(), mapped.end());
      for (std::size_t i = 0; i + 1 < mapped.size(); ++i)
        if (mapped[i].first == mapped[i + 1].first) ok = false;
    }
    if (ok) {
      std::vector<std::size_t> members(k), digits(k);
      for (std::size_t i = 0; i < k; ++i) {
        members[i] = mapped[i].first;
        digits[i] = mapped[i].second;
      }
      // The engine's guard predicates, verbatim: the seed must be a tuple
      // the search would ACCEPT, not merely evaluate.
      bool guard_branch = false;
      bool guard_reject = false;
      if (config_.worst_case_guard) {
        for (std::size_t i = 0; i < k; ++i)
          if (!fits[choice_off[members[i]] + digits[i]]) {
            guard_branch = true;
            break;
          }
        if (guard_branch) {
          if (k < 2) {
            guard_reject = true;
          } else {
            for (std::size_t i = 0; i < k; ++i)
              if (!surv_ok[choice_off[members[i]] + digits[i]]) {
                guard_reject = true;
                break;
              }
          }
        }
      }
      if (!guard_reject) {
        SubsetEvaluator seed_ev(*tables, members);
        const Expectation& e = seed_ev.evaluate(digits);
        const bool miss =
            guard_branch && 1.0 - e.p_complete_on_spot > config_.miss_tolerance;
        if (!miss && e.time_h <= deadline_h) {
          offer_incumbent(e.cost_usd);
          warm_seeds = 1;
        }
      }
    }
  }

  const auto eval_subset_fast = [&](std::size_t task) {
    const std::vector<std::size_t>& subset = subsets[task];
    const std::size_t k = subset.size();
    SubsetBest best;
    best.order = task;
    best.evaluations = logical_evaluations(subset);

    std::vector<std::size_t> radices;
    radices.reserve(k);
    std::size_t total_tuples = 1;
    for (std::size_t g : subset) {
      radices.push_back(choice_count(g));
      total_tuples *= radices.back();
    }

    // The reference scan visits tuples digit-0-fastest (colex) and accepts
    // strict improvements only, so among equal-cost tuples it keeps the one
    // with the lowest colex rank. The odometer visits in lex order; breaking
    // cost ties by colex rank reproduces the reference winner exactly
    // instead of relying on costs never tying.
    std::vector<std::uint64_t> colex_w(k);
    std::uint64_t w = 1;
    for (std::size_t i = 0; i < k; ++i) {
      colex_w[i] = w;
      w *= radices[i];
    }
    const auto colex_rank = [&](const std::vector<std::size_t>& bids) {
      std::uint64_t r = 0;
      for (std::size_t i = 0; i < k; ++i) r += colex_w[i] * bids[i];
      return r;
    };
    std::uint64_t best_rank = std::numeric_limits<std::uint64_t>::max();

    // Guard-clamped second shots exist only for single-group subsets and use
    // an interval outside the precomputed tables, where spot-term
    // monotonicity in F is not bitwise-guaranteed — so k == 1 subsets (only
    // O(bid_count) tuples) are searched unpruned.
    const bool prune = config_.prune && k >= 2;

    SubsetEvaluator ev(*tables, subset);
    if (prune) {
      const double inc = incumbent.load(std::memory_order_relaxed);
      if (inc < std::numeric_limits<double>::infinity() &&
          ev.subset_cost_bound() > inc) {
        best.stats.subsets_pruned = 1;
        best.stats.tuples_pruned = total_tuples;
        return best;
      }
    }
    best.stats.subsets_searched = 1;

    std::optional<CostModel> clamp_model;  // lazy; k == 1 second shots only
    std::vector<GroupDecision> decisions(k);
    const auto accept = [&](const Expectation& e, const std::vector<GroupDecision>& d,
                            std::uint64_t rank) {
      if (!(e.time_h <= deadline_h)) return;
      if (e.cost_usd < best.cost || (e.cost_usd == best.cost && rank < best_rank)) {
        best.cost = e.cost_usd;
        best_rank = rank;
        best.subset = subset;
        best.decisions = d;
        best.expectation = e;
        offer_incumbent(e.cost_usd);
      }
    };

    TupleOdometer odo(radices);
    std::size_t changed = 0;
    while (!odo.done()) {
      const std::vector<std::size_t>& bids = odo.digits();
      ev.note_change(changed);
      if (prune) {
        const double inc =
            std::min(best.cost, incumbent.load(std::memory_order_relaxed));
        if (inc < std::numeric_limits<double>::infinity()) {
          // After advance/skip the digits below `changed` are zero, so the
          // current tuple is the first of the subtree rooted at its prefix
          // [0, changed] — one cut abandons the whole subtree.
          if (changed + 1 < k && ev.cost_lower_bound(bids, changed) > inc) {
            ++best.stats.subtrees_pruned;
            best.stats.tuples_pruned +=
                static_cast<std::size_t>(odo.subtree_size(changed));
            changed = odo.skip_from(changed);
            continue;
          }
          if (ev.cost_lower_bound(bids, k - 1) > inc) {
            ++best.stats.tuples_pruned;
            changed = odo.advance();
            continue;
          }
        }
      }
      ++best.stats.tuples_visited;

      for (std::size_t i = 0; i < k; ++i)
        decisions[i] = decode(subset[i], bids[i], f_of);

      // Guard filter, table-driven (same predicates the reference scan
      // computes per tuple): a tuple whose worst case misses the deadline is
      // evaluated only when genuine replication can stand in.
      bool guard_branch = false;  // some digit's worst case misses
      bool guard_reject = false;  // ... and replication cannot stand in
      if (config_.worst_case_guard) {
        for (std::size_t i = 0; i < k; ++i)
          if (!fits[choice_off[subset[i]] + bids[i]]) {
            guard_branch = true;
            break;
          }
        if (guard_branch) {
          if (k < 2) {
            guard_reject = true;
          } else {
            for (std::size_t i = 0; i < k; ++i)
              if (!surv_ok[choice_off[subset[i]] + bids[i]]) {
                guard_reject = true;
                break;
              }
          }
        }
      }
      if (!guard_reject) {
        const Expectation& e = ev.evaluate(bids);
        ++best.stats.evaluations;
        const bool miss =
            guard_branch && 1.0 - e.p_complete_on_spot > config_.miss_tolerance;
        if (!miss) accept(e, decisions, colex_rank(bids));
      }

      // Single-group second shot with the guard-clamped interval, exactly as
      // in the reference scan. The clamped interval is not in the tables, so
      // it goes through the naive evaluator (bit-identical by definition).
      if (config_.worst_case_guard && k == 1 && config_.phi_mode != PhiMode::kDisabled) {
        const int clamp = f_guard_max[subset[0] * n_pol + decisions[0].policy_index];
        if (clamp >= 1 && clamp < decisions[0].f_steps) {
          if (!clamp_model)
            clamp_model.emplace(
                std::vector<const GroupSetup*>{&candidates[subset[0]]}, od, model_cfg);
          std::vector<GroupDecision> clamped = decisions;
          clamped[0].f_steps = clamp;
          const Expectation e = clamp_model->evaluate(clamped);
          ++best.stats.evaluations;
          // worst(clamp) fits the deadline by the binary-search invariant,
          // so the reference takes the plain acceptance branch here too.
          accept(e, clamped, colex_rank(bids));
        }
      }

      changed = odo.advance();
    }
    return best;
  };

  const auto eval_subset = [&](std::size_t task) {
    return config_.engine == SearchEngine::kIncremental ? eval_subset_fast(task)
                                                        : eval_subset_reference(task);
  };

  // Strict-improvement acceptance inside a subset plus the (cost, order)
  // tie-break across subsets reproduce the serial scan's winner exactly.
  const SubsetBest best = parallel_reduce(
      subsets.size(), config_.threads, SubsetBest{}, eval_subset,
      [](SubsetBest a, SubsetBest b) {
        const bool b_wins = b.cost < a.cost || (b.cost == a.cost && b.order < a.order);
        PlanStats stats = a.stats;
        stats += b.stats;
        SubsetBest& winner = b_wins ? b : a;
        winner.evaluations = a.evaluations + b.evaluations;
        winner.stats = stats;
        return std::move(winner);
      });

  const double best_cost = best.cost;
  const std::vector<std::size_t>& best_subset = best.subset;
  const std::vector<GroupDecision>& best_decisions = best.decisions;
  const Expectation& best_expectation = best.expectation;
  const std::size_t evaluations = best.evaluations;

  plan.model_evaluations = evaluations;
  plan.stats = best.stats;
  plan.stats.tables_reused = tables_reused;
  plan.stats.tables_built = tables_built;
  plan.stats.warm_seeds = warm_seeds;
  plan.spot_feasible = best_cost < std::numeric_limits<double>::infinity();

  // Fall back to on-demand when no spot configuration fits the deadline or
  // when running on demand is outright cheaper than the best hybrid.
  if (!plan.spot_feasible || best_cost >= od.full_cost_usd()) {
    plan.groups.clear();
    plan.expected = Expectation{};
    plan.expected.cost_usd = plan.expected.od_cost_usd = od.full_cost_usd();
    plan.expected.time_h = plan.expected.od_time_h = od.t_h;
    plan.expected.e_min_ratio = 1.0;
  } else {
    for (std::size_t i = 0; i < best_subset.size(); ++i) {
      const GroupSetup& g = candidates[best_subset[i]];
      const GroupDecision& d = best_decisions[i];
      plan.groups.push_back(GroupPlan{
          .spec = g.spec,
          .name = catalog_->group_name(g.spec),
          .instances = g.instances,
          .t_steps = g.t_steps,
          .o_steps = g.o_steps * d.o_scale,
          .r_steps = g.r_steps * d.r_scale,
          .bid_usd = g.failure.bid(d.bid_index),
          .f_steps = d.f_steps,
          .ckpt_policy = policies[d.policy_index].name,
      });
    }
    plan.expected = best_expectation;
  }

  plan.optimize_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_begin).count();
  log_debug("optimize ", app.name, ": ", evaluations, " logical evaluations (",
            plan.stats.evaluations, " performed, ", plan.stats.tuples_pruned,
            " tuples pruned, ", plan.stats.subtrees_pruned, " subtree cuts, ",
            plan.stats.subsets_pruned, " subsets pruned) in ", plan.optimize_seconds,
            "s, expected $", plan.expected.cost_usd);
  return plan;
}

}  // namespace sompi
