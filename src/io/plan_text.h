#ifndef MRS_IO_PLAN_TEXT_H_
#define MRS_IO_PLAN_TEXT_H_

#include <memory>
#include <string>

#include "catalog/catalog.h"
#include "common/result.h"
#include "plan/plan_tree.h"
#include "plan/query_graph.h"

namespace mrs {

/// A parsed query description: catalog plus either an execution plan or a
/// join graph (heap-held so the PlanTree's catalog pointer survives
/// moves). Exactly one of `plan` / `graph` is set on success: a plan file
/// hands the scheduler a finished join order, a graph file asks the
/// optimizer (sched_cli --optimize) to find one.
struct ParsedPlan {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<PlanTree> plan;
  std::unique_ptr<QueryGraph> graph;
};

/// Deepest operator nesting a plan line may have: far above real plans
/// (a left-deep join of N relations nests N-1 deep), and shallow enough
/// that the recursive passes over a plan stay within a thread's stack.
inline constexpr int kMaxPlanDepth = 1000;

/// Parses the plan text format:
///
///   # relations first: name and tuple count
///   relation customer 30000
///   relation orders   90000
///   relation nation   25
///
///   # then exactly one plan line; (join OUTER INNER) — INNER feeds the
///   # hash build; leaves are relation names
///   plan (join (join orders customer) nation)
///
/// or, alternatively to the plan line, exactly one graph stanza listing
/// the join edges as (name name) pairs over the declared relations:
///
///   graph (customer orders) (orders nation)
///
/// Blank lines and '#' comments are ignored. Every relation must be
/// declared before the plan/graph line; each relation may be scanned at
/// most once; a file may not carry both a plan and a graph; a plan nests
/// at most kMaxPlanDepth operators deep. Errors carry the offending line
/// number.
Result<ParsedPlan> ParsePlanText(const std::string& text);

/// Renders a catalog and finalized plan back into the text format
/// (ParsePlanText(WritePlanText(x)) reproduces x).
Result<std::string> WritePlanText(const Catalog& catalog,
                                  const PlanTree& plan);

/// Renders a catalog and join graph back into the text format
/// (ParsePlanText(WriteGraphText(x)) reproduces x). The graph must be
/// defined over exactly the catalog's relations.
Result<std::string> WriteGraphText(const Catalog& catalog,
                                   const QueryGraph& graph);

}  // namespace mrs

#endif  // MRS_IO_PLAN_TEXT_H_
