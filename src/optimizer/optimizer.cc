#include "optimizer/optimizer.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <optional>
#include <utility>
#include <vector>

#include "catalog/relation.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "cost/parallelize_cache.h"

namespace mrs {

namespace {

/// Shift separating the slice index from the slice-local combination
/// counter in a plan id. 2^40 combinations per slice is far beyond
/// max_candidates-squared territory.
constexpr int kSliceShift = 40;

const char* EngineName(OptimizerEngine engine) {
  return engine == OptimizerEngine::kList ? "list" : "tree";
}

/// Greedy connectivity-ordered seed plan: repeatedly joins the two
/// components whose join has the smallest result, the build side the
/// smaller input. Deterministic (ties by edge index / plan-node id); its
/// makespan is the pruning incumbent, and the plan itself is regenerated
/// by the enumeration, so the search result is never worse than the seed.
Result<PlanTree> BuildGreedyPlan(const Catalog& catalog,
                                 const QueryGraph& graph) {
  const int n = graph.num_relations();
  PlanTree plan(&catalog);
  struct Component {
    int node = -1;
    int64_t out_tuples = 0;
  };
  std::vector<int> comp_of(static_cast<size_t>(n));
  std::vector<Component> comps(static_cast<size_t>(n));
  for (int r = 0; r < n; ++r) {
    MRS_ASSIGN_OR_RETURN(int leaf, plan.AddLeaf(r));
    MRS_ASSIGN_OR_RETURN(Relation rel, catalog.GetRelation(r));
    comp_of[static_cast<size_t>(r)] = r;
    comps[static_cast<size_t>(r)] = {leaf, rel.num_tuples};
  }
  const std::vector<JoinEdge>& edges = graph.edges();
  for (int step = 0; step + 1 < n; ++step) {
    int best_edge = -1;
    int64_t best_out = 0;
    for (int ei = 0; ei < static_cast<int>(edges.size()); ++ei) {
      const JoinEdge& e = edges[static_cast<size_t>(ei)];
      const int ca = comp_of[static_cast<size_t>(e.left_relation)];
      const int cb = comp_of[static_cast<size_t>(e.right_relation)];
      if (ca == cb) continue;
      const int64_t out =
          KeyJoinResultTuples(comps[static_cast<size_t>(ca)].out_tuples,
                              comps[static_cast<size_t>(cb)].out_tuples);
      if (best_edge < 0 || out < best_out) {
        best_edge = ei;
        best_out = out;
      }
    }
    if (best_edge < 0) {
      return Status::InvalidArgument(
          "query graph is disconnected; cannot seed the optimizer");
    }
    const JoinEdge& e = edges[static_cast<size_t>(best_edge)];
    const int ca = comp_of[static_cast<size_t>(e.left_relation)];
    const int cb = comp_of[static_cast<size_t>(e.right_relation)];
    const Component& a = comps[static_cast<size_t>(ca)];
    const Component& b = comps[static_cast<size_t>(cb)];
    // Build on the smaller input; ties by plan-node id for determinism.
    int inner = cb;
    if (b.out_tuples > a.out_tuples ||
        (b.out_tuples == a.out_tuples && a.node < b.node)) {
      inner = ca;
    }
    const int outer = inner == ca ? cb : ca;
    MRS_ASSIGN_OR_RETURN(
        int join,
        plan.AddJoin(comps[static_cast<size_t>(outer)].node,
                     comps[static_cast<size_t>(inner)].node));
    comps[static_cast<size_t>(ca)] = {join,
                                      plan.node(join).output.num_tuples};
    for (int r = 0; r < n; ++r) {
      if (comp_of[static_cast<size_t>(r)] == cb) {
        comp_of[static_cast<size_t>(r)] = ca;
      }
    }
  }
  MRS_RETURN_IF_ERROR(plan.Finalize());
  return plan;
}

/// Result slot of one bottom-up DP job (one memo subset).
struct SubsetOutcome {
  Status status;
  uint64_t generated = 0;
  uint64_t kept = 0;
  uint64_t pruned = 0;
};

/// A complete plan that passed the tier-1 bound: that bound and the plan
/// id, from which DecodePlanId recovers the root refs. 16 bytes, so even
/// the exhaustive frontier of a J=8 chain (366,080 plans) stays under
/// 6 MB.
struct FrontierEntry {
  double bound = 0.0;
  uint64_t plan_id = 0;
};
static_assert(sizeof(FrontierEntry) == 16);

/// Combinations per frontier work unit, and complete plans per pricing
/// batch. Both are fixed, never derived from the thread count, so the
/// frontier, the batch boundaries and every counter are the same for any
/// num_threads.
constexpr uint64_t kFrontierUnit = 256;
constexpr size_t kBatchSize = 16;

/// A run of one root slice's combination counters [begin, end).
struct FrontierUnit {
  int slice = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
};

/// The root join of a complete plan: outer feeds the probe, inner the
/// build.
struct RootRefs {
  PlanEnumerator::CandidateRef outer;
  PlanEnumerator::CandidateRef inner;
};

/// Inverts the plan-id numbering: a slice's counter walks outer
/// candidates, then inner candidates, then the two build-side
/// orientations.
RootRefs DecodePlanId(const PlanEnumerator& enumerator, uint64_t plan_id) {
  const PlanEnumerator::RootSlice& slice =
      enumerator.root_slices()[static_cast<size_t>(plan_id >> kSliceShift)];
  const uint64_t counter = plan_id & ((uint64_t{1} << kSliceShift) - 1);
  const uint64_t num_inner =
      enumerator.candidates(slice.inner_subset).size();
  const uint64_t pair = counter >> 1;
  RootRefs refs{{slice.outer_subset, static_cast<int>(pair / num_inner)},
                {slice.inner_subset, static_cast<int>(pair % num_inner)}};
  if ((counter & 1) != 0) std::swap(refs.outer, refs.inner);
  return refs;
}

/// Runs work(worker, i) for every i in [0, n). Each pool job claims the
/// next index from a shared counter, so one long item never holds a
/// queue of others behind it (the pool deals whole jobs round-robin and
/// never steals). `worker` < pool.num_threads() names the job, for
/// per-job result slots.
template <typename Fn>
void ClaimAll(ThreadPool& pool, size_t n, const Fn& work) {
  const size_t workers =
      std::min(static_cast<size_t>(pool.num_threads()), n);
  std::atomic<size_t> next{0};
  for (size_t w = 0; w < workers; ++w) {
    pool.Submit([&, w] {
      for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        work(w, i);
      }
    });
  }
  pool.WaitAll();
}

/// One pricing worker's share of a batch.
struct BatchOutcome {
  Status status;  ///< the error at the lowest batch position, if any
  size_t error_pos = ~size_t{0};
  uint64_t scheduled = 0;
  bool has_best = false;
  double best_makespan = 0.0;
  uint64_t best_id = 0;

  void Offer(double makespan, uint64_t id) {
    if (!has_best || makespan < best_makespan ||
        (makespan == best_makespan && id < best_id)) {
      has_best = true;
      best_makespan = makespan;
      best_id = id;
    }
  }
};

}  // namespace

std::string OptimizeResult::Explain() const {
  std::string out;
  out += StrFormat("optimizer: engine=%s prune=%s relations=%d joins=%d\n",
                   EngineName(engine), prune ? "on" : "off", num_relations,
                   num_joins);
  out += StrFormat("plan: %s\n",
                   plan ? plan->ToString().c_str() : "(none)");
  out += StrFormat("makespan_ms: %.6f\n", makespan);
  out += StrFormat("plan_id: %llu\n",
                   static_cast<unsigned long long>(plan_id));
  out += StrFormat("seed_makespan_ms: %.6f\n", seed_makespan);
  out += StrFormat(
      "plans: considered=%llu scheduled=%llu pruned=%llu\n",
      static_cast<unsigned long long>(stats.plans_considered),
      static_cast<unsigned long long>(stats.plans_scheduled),
      static_cast<unsigned long long>(stats.plans_pruned));
  out += StrFormat(
      "subplans: considered=%llu kept=%llu pruned=%llu subsets=%d "
      "slices=%d\n",
      static_cast<unsigned long long>(stats.subplans_considered),
      static_cast<unsigned long long>(stats.subplans_kept),
      static_cast<unsigned long long>(stats.subplans_pruned),
      stats.num_subsets, stats.num_slices);
  return out;
}

Result<OptimizeResult> OptimizeJoinOrder(const Catalog& catalog,
                                         const QueryGraph& graph,
                                         const CostParams& params,
                                         const MachineConfig& machine,
                                         const OverlapUsageModel& usage,
                                         const OptimizerOptions& options) {
  if (graph.num_relations() != catalog.num_relations()) {
    return Status::InvalidArgument(
        StrFormat("query graph covers %d relations but the catalog has %d",
                  graph.num_relations(), catalog.num_relations()));
  }
  MRS_ASSIGN_OR_RETURN(PlanEnumerator enumerator,
                       PlanEnumerator::Create(graph));

  MachineConfig config = machine;
  MRS_RETURN_IF_ERROR(config.Validate());
  MetricsRegistry* registry =
      options.metrics != nullptr ? options.metrics : &MetricsRegistry::Global();
  ParallelizeCache cache(params, usage.epsilon(), options.granularity,
                         config.num_sites, registry);

  MakespanCostOptions cost_options;
  cost_options.granularity = options.granularity;
  cost_options.policy = options.policy;
  cost_options.build_degree = options.build_degree;
  cost_options.engine = options.engine;
  cost_options.num_disks = options.num_disks;
  cost_options.cost_options = options.cost_options;
  cost_options.cache = &cache;
  MRS_ASSIGN_OR_RETURN(
      MakespanCostFn cost_fn,
      MakespanCostFn::Create(&catalog, params, config, usage, cost_options));

  const int n = enumerator.num_relations();
  const uint64_t full_mask =
      n == 64 ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);

  OptimizeResult result;
  result.num_relations = n;
  result.num_joins = graph.num_joins();
  result.engine = options.engine;
  result.prune = options.prune;
  result.stats.num_subsets = enumerator.num_subsets();
  result.stats.num_slices =
      static_cast<int>(enumerator.root_slices().size());

  SpanTimer whole(options.trace, "optimize");

  // Stage 1: greedy seed — the fixed pruning incumbent.
  double seed_makespan = 0.0;
  {
    SpanTimer span(options.trace, "opt_seed");
    MRS_ASSIGN_OR_RETURN(PlanTree seed_plan,
                         BuildGreedyPlan(catalog, graph));
    MRS_ASSIGN_OR_RETURN(PreparedPlan prepared, cost_fn.Prepare(seed_plan));
    MRS_ASSIGN_OR_RETURN(seed_makespan, cost_fn.Makespan(prepared));
    if (span.active()) span.AttrDouble("makespan_ms", seed_makespan);
  }
  result.seed_makespan = seed_makespan;

  if (n == 1) {
    // A join-free query has exactly one plan: the lone scan.
    PlanEnumerator::CandidateRef leaf{0, 0};
    MRS_ASSIGN_OR_RETURN(PlanTree plan,
                         enumerator.BuildPlan(&catalog, leaf));
    MRS_ASSIGN_OR_RETURN(PreparedPlan prepared, cost_fn.Prepare(plan));
    MRS_ASSIGN_OR_RETURN(result.makespan, cost_fn.Makespan(prepared));
    result.plan = std::make_unique<PlanTree>(std::move(plan));
    result.plan_id = 0;
    result.stats.plans_considered = 1;
    result.stats.plans_scheduled = 1;
    result.stats.subplans_considered = 1;
    result.stats.subplans_kept = 1;
    result.stats.cache_hits = cache.counter().hits();
    result.stats.cache_misses = cache.counter().misses();
    return result;
  }

  ThreadPool pool(options.num_threads);

  // Per-candidate pruning aggregates, index-aligned with the enumerator's
  // memo lists. Each DP job writes only its own subset's vector and reads
  // completed smaller subsets (the size barrier below), so no locking.
  std::vector<std::vector<SubplanBound>> bounds(
      static_cast<size_t>(enumerator.num_subsets()));
  if (options.prune) {
    for (int id : enumerator.SubsetsOfSize(1)) {
      const int r = std::countr_zero(enumerator.subset_mask(id));
      MRS_ASSIGN_OR_RETURN(SubplanBound leaf, cost_fn.LeafBound(r));
      bounds[static_cast<size_t>(id)].push_back(std::move(leaf));
    }
  }

  // Stage 2: fill the memo bottom-up, one job per subset, a barrier
  // between sizes. Pruning compares each candidate's O(1) compositional
  // bound (CombineBound: only the two root operators are costed) against
  // the *fixed* seed incumbent, so the memo is identical for every thread
  // count and no candidate ever pays a full Prepare() here.
  {
    SpanTimer span(options.trace, "opt_dp");
    std::vector<SubsetOutcome> outcomes(
        static_cast<size_t>(enumerator.num_subsets()));
    for (int size = 2; size <= n - 1; ++size) {
      for (int id : enumerator.SubsetsOfSize(size)) {
        pool.Submit([&, id] {
          SubsetOutcome& slot = outcomes[static_cast<size_t>(id)];
          std::vector<SubplanBound>& my_bounds =
              bounds[static_cast<size_t>(id)];
          const uint64_t mask = enumerator.subset_mask(id);
          auto keep = [&](const PlanEnumerator::Candidate& cand) -> bool {
            if (!options.prune) return true;
            Result<SubplanBound> b = cost_fn.CombineBound(
                bounds[static_cast<size_t>(cand.outer.subset)]
                      [static_cast<size_t>(cand.outer.idx)],
                bounds[static_cast<size_t>(cand.inner.subset)]
                      [static_cast<size_t>(cand.inner.idx)]);
            if (!b.ok()) {
              if (slot.status.ok()) slot.status = b.status();
              my_bounds.emplace_back();  // keep memo/bounds aligned
              return true;
            }
            if (cost_fn.CheapLowerBound(*b, mask) > seed_makespan) {
              ++slot.pruned;
              return false;
            }
            my_bounds.push_back(*std::move(b));
            return true;
          };
          PlanEnumerator::GenerateCounts counts =
              enumerator.GenerateCandidates(id, keep);
          slot.generated = counts.generated;
          slot.kept = counts.kept;
        });
      }
      pool.WaitAll();
      const uint64_t memo_size = enumerator.total_candidates();
      if (memo_size > options.max_candidates) {
        return Status::InvalidArgument(StrFormat(
            "plan space too large: %llu memoized subplan candidates at "
            "subset size %d exceed max_candidates=%llu",
            static_cast<unsigned long long>(memo_size), size,
            static_cast<unsigned long long>(options.max_candidates)));
      }
    }
    for (const SubsetOutcome& slot : outcomes) {
      MRS_RETURN_IF_ERROR(slot.status);
      result.stats.subplans_considered += slot.generated;
      result.stats.subplans_kept += slot.kept;
      result.stats.subplans_pruned += slot.pruned;
    }
    // Leaf candidates exist without a generation pass.
    result.stats.subplans_considered += static_cast<uint64_t>(n);
    result.stats.subplans_kept += static_cast<uint64_t>(n);
    if (span.active()) {
      span.AttrInt("subsets", enumerator.num_subsets());
      span.AttrInt("kept",
                   static_cast<int64_t>(result.stats.subplans_kept));
    }
  }

  // Stage 3: the frontier. Every complete combination gets a plan id —
  // (slice << kSliceShift) | slice-local counter, counted before pruning
  // so ids are comparable between pruned and exhaustive runs — and, with
  // pruning on, its O(1) tier-1 bound. Combinations whose bound exceeds
  // the seed can never win and are dropped. The work is cut into
  // fixed-size units that workers claim one at a time, so no root slice
  // is a single job.
  SpanTimer search_span(options.trace, "opt_search");
  const std::vector<PlanEnumerator::RootSlice>& root_slices =
      enumerator.root_slices();
  std::vector<FrontierUnit> units;
  for (int si = 0; si < static_cast<int>(root_slices.size()); ++si) {
    const PlanEnumerator::RootSlice& slice =
        root_slices[static_cast<size_t>(si)];
    const uint64_t combos =
        2 * enumerator.candidates(slice.outer_subset).size() *
        enumerator.candidates(slice.inner_subset).size();
    result.stats.plans_considered += combos;
    for (uint64_t begin = 0; begin < combos; begin += kFrontierUnit) {
      units.push_back({si, begin, std::min(combos, begin + kFrontierUnit)});
    }
  }
  std::vector<FrontierEntry> frontier;
  {
    std::vector<Status> unit_status(units.size());
    std::vector<std::vector<FrontierEntry>> shards(
        static_cast<size_t>(pool.num_threads()));
    ClaimAll(pool, units.size(), [&](size_t w, size_t u) {
      const FrontierUnit& unit = units[u];
      std::vector<FrontierEntry>& shard = shards[w];
      const uint64_t slice_bits = static_cast<uint64_t>(unit.slice)
                                  << kSliceShift;
      for (uint64_t c = unit.begin; c < unit.end; ++c) {
        const uint64_t id = slice_bits | c;
        if (!options.prune) {
          shard.push_back({0.0, id});
          continue;
        }
        const RootRefs refs = DecodePlanId(enumerator, id);
        Result<SubplanBound> rb = cost_fn.CombineBound(
            bounds[static_cast<size_t>(refs.outer.subset)]
                  [static_cast<size_t>(refs.outer.idx)],
            bounds[static_cast<size_t>(refs.inner.subset)]
                  [static_cast<size_t>(refs.inner.idx)]);
        if (!rb.ok()) {
          unit_status[u] = rb.status();
          return;
        }
        const double bound = cost_fn.CheapLowerBound(*rb, full_mask);
        if (bound <= seed_makespan) shard.push_back({bound, id});
      }
    });
    for (const Status& status : unit_status) MRS_RETURN_IF_ERROR(status);
    frontier = std::move(shards[0]);
    for (size_t w = 1; w < shards.size(); ++w) {
      frontier.insert(frontier.end(), shards[w].begin(), shards[w].end());
      std::vector<FrontierEntry>().swap(shards[w]);
    }
    // Plan ids are unique, so this order is total: the frontier is the
    // same whichever worker found which entry.
    std::sort(frontier.begin(), frontier.end(),
              [](const FrontierEntry& a, const FrontierEntry& b) {
                return a.bound < b.bound ||
                       (a.bound == b.bound && a.plan_id < b.plan_id);
              });
  }

  // The makespan of plan `id`, or nullopt when tier 2 bounds it above
  // `limit`.
  auto price = [&](uint64_t id,
                   double limit) -> Result<std::optional<double>> {
    const RootRefs refs = DecodePlanId(enumerator, id);
    MRS_ASSIGN_OR_RETURN(
        PlanTree plan,
        enumerator.BuildRootPlan(&catalog, refs.outer, refs.inner));
    MRS_ASSIGN_OR_RETURN(PreparedPlan prepared, cost_fn.Prepare(plan));
    if (options.prune && cost_fn.LowerBound(prepared, full_mask) > limit) {
      return std::optional<double>();
    }
    MRS_ASSIGN_OR_RETURN(double makespan, cost_fn.Makespan(prepared));
    return std::optional<double>(makespan);
  };

  // Stage 4: price the frontier best-first in fixed-size batches. Every
  // plan of a batch is gated against the incumbent as it stood when the
  // batch began — tier 2, the full prepared-plan bound, then the
  // scheduler — and the incumbent only drops between batches, so what is
  // scheduled never depends on thread timing. The search stops at the
  // first tier-1 bound above the incumbent: the frontier is sorted, so
  // every later plan is bounded out too. Pruning is strict, so every plan
  // whose makespan ties the optimum is scheduled, and the argmin by
  // (makespan, plan_id) is the exhaustive search's. With pruning off the
  // incumbent is never read and the whole frontier is one batch.
  BatchOutcome best;
  {
    const size_t batch_size = options.prune ? kBatchSize : frontier.size();
    std::vector<BatchOutcome> outcomes(static_cast<size_t>(pool.num_threads()));
    double incumbent = seed_makespan;
    int64_t batches = 0;
    size_t pos = 0;
    while (pos < frontier.size()) {
      size_t end = std::min(frontier.size(), pos + batch_size);
      if (options.prune) {
        end = static_cast<size_t>(
            std::partition_point(frontier.begin() + pos,
                                 frontier.begin() + end,
                                 [&](const FrontierEntry& e) {
                                   return e.bound <= incumbent;
                                 }) -
            frontier.begin());
        if (end == pos) break;
      }
      std::fill(outcomes.begin(), outcomes.end(), BatchOutcome{});
      const double limit = incumbent;
      ClaimAll(pool, end - pos, [&](size_t w, size_t k) {
        const uint64_t id = frontier[pos + k].plan_id;
        BatchOutcome& out = outcomes[w];
        Result<std::optional<double>> priced = price(id, limit);
        if (!priced.ok()) {
          if (k < out.error_pos) {
            out.error_pos = k;
            out.status = priced.status();
          }
        } else if (priced->has_value()) {
          ++out.scheduled;
          out.Offer(**priced, id);
        }
      });
      const BatchOutcome* error = nullptr;
      for (const BatchOutcome& out : outcomes) {
        if (!out.status.ok() &&
            (error == nullptr || out.error_pos < error->error_pos)) {
          error = &out;
        }
        result.stats.plans_scheduled += out.scheduled;
        if (out.has_best) best.Offer(out.best_makespan, out.best_id);
      }
      if (error != nullptr) return error->status;
      if (best.has_best) incumbent = std::min(incumbent, best.best_makespan);
      ++batches;
      pos = end;
    }
    if (search_span.active()) {
      search_span.AttrInt("slices", static_cast<int64_t>(root_slices.size()));
      search_span.AttrInt("frontier", static_cast<int64_t>(frontier.size()));
      search_span.AttrInt("batches", batches);
    }
  }
  search_span.End();
  result.stats.plans_pruned =
      result.stats.plans_considered - result.stats.plans_scheduled;

  if (!best.has_best) {
    // Every combination was pruned — possible only through floating-point
    // corner cases, since the greedy plan itself passes the bound checks.
    // Fall back to the seed plan, deterministically.
    MRS_ASSIGN_OR_RETURN(PlanTree seed_plan,
                         BuildGreedyPlan(catalog, graph));
    result.plan = std::make_unique<PlanTree>(std::move(seed_plan));
    result.makespan = seed_makespan;
    result.plan_id = ~uint64_t{0};
  } else {
    const RootRefs refs = DecodePlanId(enumerator, best.best_id);
    MRS_ASSIGN_OR_RETURN(
        PlanTree plan,
        enumerator.BuildRootPlan(&catalog, refs.outer, refs.inner));
    result.plan = std::make_unique<PlanTree>(std::move(plan));
    result.makespan = best.best_makespan;
    result.plan_id = best.best_id;
  }

  result.stats.cache_hits = cache.counter().hits();
  result.stats.cache_misses = cache.counter().misses();

  registry->GetCounter("opt.plans_considered")
      ->Increment(result.stats.plans_considered);
  registry->GetCounter("opt.plans_scheduled")
      ->Increment(result.stats.plans_scheduled);
  registry->GetCounter("opt.plans_pruned")
      ->Increment(result.stats.plans_pruned);
  registry->GetCounter("opt.subplans_considered")
      ->Increment(result.stats.subplans_considered);
  registry->GetCounter("opt.subplans_pruned")
      ->Increment(result.stats.subplans_pruned);

  if (whole.active()) {
    whole.AttrInt("relations", n);
    whole.AttrInt("joins", result.num_joins);
    whole.AttrInt("plans_considered",
                  static_cast<int64_t>(result.stats.plans_considered));
    whole.AttrInt("plans_scheduled",
                  static_cast<int64_t>(result.stats.plans_scheduled));
    whole.AttrInt("plans_pruned",
                  static_cast<int64_t>(result.stats.plans_pruned));
    whole.AttrDouble("makespan_ms", result.makespan);
  }
  return result;
}

Result<OptimizeResult> ExhaustivePlanSearch(const Catalog& catalog,
                                            const QueryGraph& graph,
                                            const CostParams& params,
                                            const MachineConfig& machine,
                                            const OverlapUsageModel& usage,
                                            OptimizerOptions options) {
  options.prune = false;
  return OptimizeJoinOrder(catalog, graph, params, machine, usage, options);
}

}  // namespace mrs
