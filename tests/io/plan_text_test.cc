#include "io/plan_text.h"

#include <gtest/gtest.h>

#include "core/tree_schedule.h"
#include "cost/cost_model.h"
#include "plan/operator_tree.h"
#include "plan/task_tree.h"
#include "resource/usage_model.h"
#include "workload/generator.h"

namespace mrs {
namespace {

constexpr const char* kExample = R"(
# a three-way join
relation customer 30000
relation orders 90000
relation nation 25

plan (join (join orders customer) nation)
)";

TEST(PlanTextTest, ParsesExample) {
  auto parsed = ParsePlanText(kExample);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->catalog->num_relations(), 3);
  EXPECT_EQ(parsed->catalog->GetRelationByName("orders")->num_tuples, 90000);
  ASSERT_TRUE(parsed->plan->finalized());
  EXPECT_EQ(parsed->plan->num_joins(), 2);
  // R-numbers are catalog ids in declaration order: customer=R0,
  // orders=R1, nation=R2; the plan joins (orders customer) first.
  EXPECT_EQ(parsed->plan->ToString(), "((R1 JOIN R0) JOIN R2)");
  const PlanNode& root = parsed->plan->node(parsed->plan->root());
  EXPECT_FALSE(root.is_leaf);
  // Key-join sizing applied during parsing.
  EXPECT_EQ(root.output.num_tuples, 90000);
}

TEST(PlanTextTest, SingleRelationPlan) {
  auto parsed = ParsePlanText("relation r 100\nplan r\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->plan->num_joins(), 0);
  EXPECT_EQ(parsed->plan->num_leaves(), 1);
}

TEST(PlanTextTest, InnerOuterOrderPreserved) {
  auto parsed = ParsePlanText(
      "relation big 5000\nrelation small 10\nplan (join big small)\n");
  ASSERT_TRUE(parsed.ok());
  const PlanNode& root = parsed->plan->node(parsed->plan->root());
  // outer = first argument, inner (build side) = second.
  EXPECT_EQ(parsed->plan->node(root.outer_child).output.name, "big");
  EXPECT_EQ(parsed->plan->node(root.inner_child).output.name, "small");
}

TEST(PlanTextTest, RoundTripsThroughWriter) {
  auto parsed = ParsePlanText(kExample);
  ASSERT_TRUE(parsed.ok());
  auto text = WritePlanText(*parsed->catalog, *parsed->plan);
  ASSERT_TRUE(text.ok());
  auto reparsed = ParsePlanText(text.value());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->plan->ToString(), parsed->plan->ToString());
  auto text2 = WritePlanText(*reparsed->catalog, *reparsed->plan);
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(text.value(), text2.value());
}

constexpr const char* kGraphExample = R"(
# the same three relations, as an unoptimized join graph
relation customer 30000
relation orders 90000
relation nation 25

graph (customer orders) (orders nation)
)";

TEST(PlanTextTest, ParsesGraphStanza) {
  auto parsed = ParsePlanText(kGraphExample);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->plan, nullptr);
  ASSERT_NE(parsed->graph, nullptr);
  EXPECT_EQ(parsed->graph->num_relations(), 3);
  ASSERT_EQ(parsed->graph->num_joins(), 2);
  // customer=0, orders=1, nation=2 in declaration order.
  EXPECT_EQ(parsed->graph->edges()[0].left_relation, 0);
  EXPECT_EQ(parsed->graph->edges()[0].right_relation, 1);
  EXPECT_EQ(parsed->graph->edges()[1].left_relation, 1);
  EXPECT_EQ(parsed->graph->edges()[1].right_relation, 2);
  EXPECT_TRUE(parsed->graph->IsTree());
}

TEST(PlanTextTest, ParsesEdgelessGraph) {
  auto parsed = ParsePlanText("relation r 100\ngraph\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_NE(parsed->graph, nullptr);
  EXPECT_EQ(parsed->graph->num_relations(), 1);
  EXPECT_EQ(parsed->graph->num_joins(), 0);
}

TEST(PlanTextTest, GraphRoundTripsThroughWriter) {
  auto parsed = ParsePlanText(kGraphExample);
  ASSERT_TRUE(parsed.ok());
  auto text = WriteGraphText(*parsed->catalog, *parsed->graph);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  auto reparsed = ParsePlanText(text.value());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_NE(reparsed->graph, nullptr);
  EXPECT_EQ(reparsed->graph->ToString(), parsed->graph->ToString());
  auto text2 = WriteGraphText(*reparsed->catalog, *reparsed->graph);
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(text.value(), text2.value());
}

TEST(PlanTextTest, GraphErrorsCarryLineNumbers) {
  const struct {
    const char* text;
    const char* needle;
  } cases[] = {
      {"relation a 1\nrelation b 2\ngraph (a ghost)\n",
       "line 3: unknown relation 'ghost'"},
      {"relation a 1\nrelation b 2\ngraph a b\n",
       "line 3: expected '(' to open a join edge"},
      {"relation a 1\nrelation b 2\ngraph (a)\n",
       "line 3: expected two relation names"},
      {"relation a 1\nrelation b 2\ngraph (a b\n",
       "line 3: expected ')' to close the join edge"},
      {"relation a 1\nrelation b 2\ngraph (a b) (a b)\n", "line 3:"},
      {"relation a 1\nrelation b 2\ngraph (a a)\n", "line 3:"},
  };
  for (const auto& c : cases) {
    auto bad = ParsePlanText(c.text);
    ASSERT_FALSE(bad.ok()) << c.text;
    EXPECT_NE(bad.status().message().find(c.needle), std::string::npos)
        << c.text << " -> " << bad.status().ToString();
  }
}

TEST(PlanTextTest, PlanAndGraphAreMutuallyExclusive) {
  EXPECT_FALSE(
      ParsePlanText("relation a 1\nrelation b 2\n"
                    "plan (join a b)\ngraph (a b)\n")
          .ok());
  EXPECT_FALSE(
      ParsePlanText("relation a 1\nrelation b 2\n"
                    "graph (a b)\nplan (join a b)\n")
          .ok());
  EXPECT_FALSE(
      ParsePlanText("relation a 1\nrelation b 2\n"
                    "graph (a b)\ngraph (a b)\n")
          .ok());
  EXPECT_FALSE(
      ParsePlanText("relation a 1\ngraph\nrelation b 2\n").ok());
}

TEST(PlanTextTest, WriteGraphTextValidatesTheCatalogSize) {
  auto parsed = ParsePlanText(kGraphExample);
  ASSERT_TRUE(parsed.ok());
  QueryGraph wrong(2);
  ASSERT_TRUE(wrong.AddJoin(0, 1).ok());
  EXPECT_FALSE(WriteGraphText(*parsed->catalog, wrong).ok());
}

TEST(PlanTextTest, ErrorsCarryLineNumbers) {
  auto bad = ParsePlanText("relation r\nplan r\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 1"), std::string::npos);
}

TEST(PlanTextTest, RejectsUnknownKeyword) {
  auto bad = ParsePlanText("table r 100\nplan r\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("unknown keyword"),
            std::string::npos);
}

TEST(PlanTextTest, RejectsUnknownRelation) {
  auto bad = ParsePlanText("relation r 100\nplan (join r ghost)\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("ghost"), std::string::npos);
}

TEST(PlanTextTest, RejectsRelationScannedTwice) {
  auto bad = ParsePlanText("relation r 100\nplan (join r r)\n");
  EXPECT_FALSE(bad.ok());
}

TEST(PlanTextTest, RejectsMalformedSexpr) {
  EXPECT_FALSE(ParsePlanText("relation a 1\nrelation b 2\n"
                             "plan (join a b\n")
                   .ok());  // missing ')'
  EXPECT_FALSE(ParsePlanText("relation a 1\nplan (cross a a)\n").ok());
  EXPECT_FALSE(ParsePlanText("relation a 1\nrelation b 2\n"
                             "plan (join a b) extra\n")
                   .ok());
  EXPECT_FALSE(ParsePlanText("relation a 1\nplan\n").ok());
}

TEST(PlanTextTest, RejectsDuplicatePlanOrLateRelations) {
  EXPECT_FALSE(
      ParsePlanText("relation a 1\nplan a\nplan a\n").ok());
  EXPECT_FALSE(
      ParsePlanText("relation a 1\nplan a\nrelation b 2\n").ok());
  EXPECT_FALSE(ParsePlanText("relation a 1\n").ok());  // no plan
}

TEST(PlanTextTest, RejectsDuplicateRelation) {
  auto bad = ParsePlanText("relation r 1\nrelation r 2\nplan r\n");
  EXPECT_FALSE(bad.ok());
}

TEST(PlanTextTest, RejectsNegativeAndTrailing) {
  EXPECT_FALSE(ParsePlanText("relation r -5\nplan r\n").ok());
  EXPECT_FALSE(ParsePlanText("relation r 5 junk\nplan r\n").ok());
}

TEST(PlanTextTest, CommentsAndWhitespaceIgnored) {
  auto parsed = ParsePlanText(
      "  # leading comment\n"
      "relation a 10   # trailing comment\n"
      "\n\t\n"
      "relation b 20\n"
      "plan (join a b)  # done\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->plan->num_joins(), 1);
}

TEST(PlanTextTest, DeepNesting) {
  std::string text;
  for (int i = 0; i < 12; ++i) {
    text += "relation r" + std::to_string(i) + " 100\n";
  }
  std::string expr = "r0";
  for (int i = 1; i < 12; ++i) {
    expr = "(join " + expr + " r" + std::to_string(i) + ")";
  }
  text += "plan " + expr + "\n";
  auto parsed = ParsePlanText(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->plan->num_joins(), 11);
  EXPECT_EQ(parsed->plan->Height(), 11);
}

/// A plan line of `depth` nested sorts around one relation.
std::string NestedSortPlan(int depth) {
  std::string text = "relation r 1000\nplan ";
  for (int i = 0; i < depth; ++i) text += "(sort ";
  text += "r";
  text.append(static_cast<size_t>(depth), ')');
  return text + "\n";
}

TEST(PlanTextTest, PlanAtTheDepthLimitParsesAndSchedules) {
  auto parsed = ParsePlanText(NestedSortPlan(kMaxPlanDepth));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->plan->Height(), kMaxPlanDepth);

  auto ops = OperatorTree::FromPlan(*parsed->plan);
  ASSERT_TRUE(ops.ok()) << ops.status().ToString();
  auto tasks = TaskTree::FromOperatorTree(&ops.value());
  ASSERT_TRUE(tasks.ok()) << tasks.status().ToString();
  auto costs = CostModel(CostParams{}, 3).CostAll(*ops);
  ASSERT_TRUE(costs.ok()) << costs.status().ToString();
  auto schedule = TreeSchedule(*ops, *tasks, *costs, CostParams{},
                               MachineConfig{}, OverlapUsageModel(0.5), {});
  ASSERT_TRUE(schedule.ok()) << schedule.status().ToString();
  EXPECT_GT(schedule->response_time, 0.0);
}

TEST(PlanTextTest, RejectsAPlanOneLevelPastTheDepthLimit) {
  auto parsed = ParsePlanText(NestedSortPlan(kMaxPlanDepth + 1));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(parsed.status().message().find("deeper than"), std::string::npos)
      << parsed.status().ToString();
}

/// Property: any generated plan (random shape, sizes, optional unary
/// operators) survives a write/parse round trip structurally intact.
class PlanTextRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanTextRoundTripTest, GeneratedPlansRoundTrip) {
  WorkloadParams params;
  params.num_joins = 8;
  params.sort_probability = 0.2;
  params.aggregate_probability = 0.2;
  Rng rng(GetParam());
  auto q = GenerateQuery(params, &rng);
  ASSERT_TRUE(q.ok());
  auto text = WritePlanText(*q->catalog, *q->plan);
  ASSERT_TRUE(text.ok());
  auto reparsed = ParsePlanText(text.value());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << text.value();
  EXPECT_EQ(reparsed->plan->ToString(), q->plan->ToString());
  EXPECT_EQ(reparsed->plan->num_joins(), q->plan->num_joins());
  EXPECT_EQ(reparsed->plan->num_unary(), q->plan->num_unary());
  EXPECT_EQ(reparsed->catalog->num_relations(), q->catalog->num_relations());
  // Output cardinalities are recomputed identically during parsing.
  EXPECT_EQ(reparsed->plan->node(reparsed->plan->root()).output.num_tuples,
            q->plan->node(q->plan->root()).output.num_tuples);
  // Idempotence: writing the reparsed plan yields the same text.
  auto text2 = WritePlanText(*reparsed->catalog, *reparsed->plan);
  ASSERT_TRUE(text2.ok());
  EXPECT_EQ(text.value(), text2.value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanTextRoundTripTest,
                         ::testing::Range(uint64_t{0}, uint64_t{12}));

TEST(PlanTextTest, WriterRequiresFinalizedPlan) {
  Catalog catalog;
  Relation r;
  r.name = "r";
  r.num_tuples = 5;
  ASSERT_TRUE(catalog.AddRelation(r).ok());
  PlanTree plan(&catalog);
  ASSERT_TRUE(plan.AddLeaf(0).ok());
  EXPECT_FALSE(WritePlanText(catalog, plan).ok());
}

}  // namespace
}  // namespace mrs
