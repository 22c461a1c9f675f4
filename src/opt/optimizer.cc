#include "opt/optimizer.h"

#include "core/trace.h"

namespace tqp {

Result<OptimizeResult> Optimize(const PlanPtr& initial, const Catalog& catalog,
                                const QueryContract& contract,
                                const std::vector<Rule>& rules,
                                const OptimizerOptions& options) {
  return Optimize(initial, catalog, contract, rules, options,
                  /*interner=*/nullptr, /*derivation=*/nullptr);
}

Result<OptimizeResult> Optimize(const PlanPtr& initial, const Catalog& catalog,
                                const QueryContract& contract,
                                const std::vector<Rule>& rules,
                                const OptimizerOptions& options,
                                PlanInterner* interner,
                                DerivationCache* derivation) {
  // The enumeration shares the optimizer's cost and cardinality models, so
  // cost-bounded pruning (when enabled) bounds against the same costs the
  // final plan choice uses.
  EnumerationOptions enum_options = options.enumeration;
  enum_options.cardinality = options.cardinality;
  enum_options.cost_engine = options.engine;
  // One bottom-up derivation cache for the search and the costing loop
  // below (the caller's, or a call-local one), so each node is derived once.
  DerivationCache local_cache;
  DerivationCache& cache = derivation ? *derivation : local_cache;
  TQP_ASSIGN_OR_RETURN(enumeration,
                       EnumeratePlans(initial, catalog, contract, rules,
                                      enum_options, interner, &cache));

  OptimizeResult out;
  out.plans_considered = enumeration.plans.size();
  out.truncated = enumeration.truncated;

  size_t best_index = 0;
  double best_cost = 0.0;
  TraceSpan span(enum_options.tracer, "opt", "cost");
  if (enumeration.costs.size() == enumeration.plans.size()) {
    // A cost-directed enumeration (pruning or best-first) already costed
    // every admitted plan against the same derivation cache and models this
    // loop would use; reuse those costs instead of re-deriving the set.
    for (size_t i = 0; i < enumeration.costs.size(); ++i) {
      if (i == 0) out.initial_cost = enumeration.costs[i];
      if (i == 0 || enumeration.costs[i] < best_cost) {
        best_cost = enumeration.costs[i];
        best_index = i;
      }
    }
  } else {
    // Cost every plan against the cache the enumeration validated against:
    // it is already primed with every admitted plan's nodes.
    PlanContext ctx(&cache, nullptr, &contract);
    for (size_t i = 0; i < enumeration.plans.size(); ++i) {
      const PlanPtr& plan = enumeration.plans[i].plan;
      if (!cache.Derive(plan, catalog, options.cardinality).ok()) continue;
      double cost = EstimatePlanCost(plan, ctx, options.engine);
      if (i == 0) out.initial_cost = cost;
      if (i == 0 || cost < best_cost) {
        best_cost = cost;
        best_index = i;
      }
    }
  }
  if (span.active()) {
    span.Arg("plans", static_cast<uint64_t>(enumeration.plans.size()));
    span.Arg("reused_enum_costs",
             uint64_t{enumeration.costs.size() == enumeration.plans.size()});
  }
  out.best_plan = enumeration.plans[best_index].plan;
  out.best_cost = best_cost;
  out.derivation = enumeration.DerivationOf(best_index);
  return out;
}

}  // namespace tqp
