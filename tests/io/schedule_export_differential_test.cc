// Differential test of the JsonWriter-based schedule exports against the
// printf-per-number encoders they replaced (tests/oracles/): random tree
// and list schedules over P in {1, 16, 64} and d in {1, 3, 12}, with the
// numbers drawn partly from the values where "%.6f" formatting is easiest
// to get wrong. Every export must match the oracle byte for byte.
// MRS_FUZZ_SEED replays a failure exactly (test_util.h).

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "io/schedule_export.h"
#include "oracles/schedule_export_oracle.h"
#include "test_util.h"

namespace mrs {
namespace {

constexpr uint64_t kDefaultSeed = 20240611;
constexpr int kTrialsPerShape = 6;

// Signed zero, negatives that round to "-0.000000", both sides of the
// 5e-7 rounding boundary, large and denormal magnitudes.
const double kEdgeValues[] = {0.0,        -0.0,           -1e-9,
                              -4.9e-7,    4.9999995e-7,   5e-7,
                              5.0000005e-7, 1.0000005,    2.5e-6,
                              0.1234565,  1e15,           1e15 + 0.5,
                              -1e15,      DBL_TRUE_MIN,   1e-310,
                              DBL_MIN,    123456.7890125, 1e-7};

class ValueSource {
 public:
  explicit ValueSource(uint64_t seed) : rng_(seed) {}

  /// A finite double: an edge value 30% of the time, else an ordinary
  /// magnitude spread over twelve decades.
  double Next() {
    if (rng_.Bernoulli(0.3)) {
      return kEdgeValues[rng_.Index(std::size(kEdgeValues))];
    }
    return rng_.LogUniform(1e-6, 1e6);
  }
  /// A valid start time (PlaceAt rejects negatives; -0.0 passes).
  double NextStart() {
    const double v = Next();
    return v < 0.0 ? -0.0 : v;
  }
  int Int(int lo, int hi) { return static_cast<int>(rng_.UniformInt(lo, hi)); }
  Rng& rng() { return rng_; }

 private:
  Rng rng_;
};

/// Random operators, each with a random degree <= P, placed clone by
/// clone on distinct sites (constraint A); `timed` gives every clone a
/// random start, making the schedule non-aligned.
Schedule RandomSchedule(int num_sites, int dims, bool timed, ValueSource* src,
                        std::vector<ParallelizedOp>* ops_out) {
  Schedule schedule(num_sites, dims);
  const int num_ops = src->Int(0, 5);
  for (int o = 0; o < num_ops; ++o) {
    ParallelizedOp op;
    op.op_id = o;
    op.degree = src->Int(1, std::min(num_sites, 6));
    std::vector<WorkVector> clones;
    for (int k = 0; k < op.degree; ++k) {
      WorkVector w(static_cast<size_t>(dims));
      for (int i = 0; i < dims; ++i) w[static_cast<size_t>(i)] = src->Next();
      clones.push_back(w);
      op.t_seq.push_back(src->Next());
    }
    op.clones = CloneSet(std::move(clones));
    std::vector<int> sites(static_cast<size_t>(num_sites));
    for (int s = 0; s < num_sites; ++s) sites[static_cast<size_t>(s)] = s;
    for (int k = 0; k < op.degree; ++k) {
      const size_t pick =
          static_cast<size_t>(k) +
          src->rng().Index(sites.size() - static_cast<size_t>(k));
      std::swap(sites[static_cast<size_t>(k)], sites[pick]);
      const double start = timed ? src->NextStart() : 0.0;
      const Status placed =
          schedule.PlaceAt(op, k, sites[static_cast<size_t>(k)], start);
      EXPECT_TRUE(placed.ok()) << placed.ToString();
    }
    if (ops_out != nullptr) ops_out->push_back(op);
  }
  return schedule;
}

TreeScheduleResult RandomTree(int num_sites, int dims, ValueSource* src) {
  TreeScheduleResult result;
  const int num_phases = src->Int(0, 3);
  for (int k = 0; k < num_phases; ++k) {
    std::vector<ParallelizedOp> ops;
    Schedule schedule = RandomSchedule(num_sites, dims, false, src, &ops);
    result.phases.push_back(
        PhaseSchedule{k, std::move(ops), std::move(schedule), src->Next()});
  }
  result.response_time = src->Next();
  return result;
}

ListScheduleResult RandomList(int num_sites, int dims, ValueSource* src) {
  ListScheduleResult result;
  result.schedule = RandomSchedule(num_sites, dims, true, src, &result.ops);
  for (int p = 0; p < result.schedule.num_placements(); ++p) {
    result.clone_finish.push_back(src->Next());
  }
  const int num_tasks = src->Int(0, 4);
  for (int t = 0; t < num_tasks; ++t) {
    ListTaskInterval interval;
    interval.task = t;
    interval.start = src->Next();
    interval.finish = src->Next();
    result.tasks.push_back(interval);
  }
  result.makespan = src->Next();
  result.tree_response_time = src->Next();
  result.rounds = src->Int(0, 9);
  result.used_tree_fallback = src->rng().Bernoulli(0.3);
  result.pipelined = !result.used_tree_fallback && src->rng().Bernoulli(0.5);
  return result;
}

class ScheduleExportDifferentialTest
    : public testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ScheduleExportDifferentialTest, WriterMatchesPrintfOracle) {
  const auto [num_sites, dims] = GetParam();
  const uint64_t seed = testing_util::FuzzSeed(kDefaultSeed) +
                        static_cast<uint64_t>(num_sites * 100 + dims);
  ValueSource src(seed);
  for (int trial = 0; trial < kTrialsPerShape; ++trial) {
    SCOPED_TRACE(testing::Message()
                 << "replay with MRS_FUZZ_SEED="
                 << testing_util::FuzzSeed(kDefaultSeed) << " (P="
                 << num_sites << ", d=" << dims << ", trial " << trial << ")");
    const TreeScheduleResult tree = RandomTree(num_sites, dims, &src);
    ASSERT_EQ(TreeScheduleToJson(tree), oracle::TreeScheduleToJson(tree));
    ASSERT_EQ(TreeScheduleToCsv(tree), oracle::TreeScheduleToCsv(tree));
    for (const PhaseSchedule& phase : tree.phases) {
      ASSERT_EQ(ScheduleToJson(phase.schedule),
                oracle::ScheduleToJson(phase.schedule));
    }
    std::string appended = "prefix";
    AppendTreeScheduleJson(tree, &appended);
    ASSERT_EQ(appended, "prefix" + oracle::TreeScheduleToJson(tree));

    const ListScheduleResult list = RandomList(num_sites, dims, &src);
    ASSERT_EQ(ListScheduleToJson(list), oracle::ListScheduleToJson(list));
    ASSERT_EQ(ListScheduleToCsv(list), oracle::ListScheduleToCsv(list));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ScheduleExportDifferentialTest,
                         testing::Combine(testing::Values(1, 16, 64),
                                          testing::Values(1, 3, 12)));

TEST(ScheduleExportDifferentialTest, EveryEdgeValueInEveryField) {
  // One clone per edge value, the value in every numeric field at once.
  for (double v : kEdgeValues) {
    SCOPED_TRACE(testing::Message() << "value " << v);
    ParallelizedOp op;
    op.op_id = 0;
    op.degree = 1;
    op.clones = {WorkVector{v, v, v}};
    op.t_seq = {v};
    Schedule schedule(2, 3);
    ASSERT_TRUE(schedule.Place(op, 0, 1).ok());
    TreeScheduleResult tree;
    tree.phases.push_back(PhaseSchedule{0, {op}, std::move(schedule), v});
    tree.response_time = v;
    EXPECT_EQ(TreeScheduleToJson(tree), oracle::TreeScheduleToJson(tree));
    EXPECT_EQ(TreeScheduleToCsv(tree), oracle::TreeScheduleToCsv(tree));

    ListScheduleResult list;
    list.schedule = Schedule(2, 3);
    ASSERT_TRUE(list.schedule.PlaceAt(op, 0, 0, v < 0.0 ? 0.0 : v).ok());
    list.ops = {op};
    list.clone_finish = {v};
    list.tasks = {ListTaskInterval{0, v, v}};
    list.makespan = v;
    list.tree_response_time = v;
    EXPECT_EQ(ListScheduleToJson(list), oracle::ListScheduleToJson(list));
    EXPECT_EQ(ListScheduleToCsv(list), oracle::ListScheduleToCsv(list));
  }
}

}  // namespace
}  // namespace mrs
