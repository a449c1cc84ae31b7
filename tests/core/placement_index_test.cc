#include "core/placement_index.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/operator_schedule.h"
#include "oracles/operator_schedule_oracle.h"
#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

using testing_util::MakeOp;

TEST(PlacementIndexTest, EmptyIndexHasNoMinSite) {
  PlacementIndex index;
  EXPECT_EQ(index.MinSite(), -1);
  EXPECT_EQ(index.MinSiteExcluding({}), -1);
}

TEST(PlacementIndexTest, SingleSite) {
  PlacementIndex index({3.0});
  EXPECT_EQ(index.MinSite(), 0);
  EXPECT_EQ(index.MinSiteExcluding({0}), -1);
}

TEST(PlacementIndexTest, FindsMinAndTracksUpdates) {
  PlacementIndex index({5.0, 2.0, 7.0, 2.5, 9.0});
  EXPECT_EQ(index.MinSite(), 1);
  index.Update(1, 8.0);
  EXPECT_EQ(index.MinSite(), 3);
  index.Update(4, 0.5);
  EXPECT_EQ(index.MinSite(), 4);
  EXPECT_DOUBLE_EQ(index.LoadOf(4), 0.5);
}

TEST(PlacementIndexTest, TiesBreakToLowestIndex) {
  PlacementIndex index({4.0, 4.0, 4.0, 4.0, 4.0});
  EXPECT_EQ(index.MinSite(), 0);
  EXPECT_EQ(index.MinSiteExcluding({0}), 1);
  EXPECT_EQ(index.MinSiteExcluding({0, 1, 2}), 3);
  // A later site dropping *to* the tie value must not displace an earlier
  // one.
  index.Update(3, 4.0);
  EXPECT_EQ(index.MinSite(), 0);
}

TEST(PlacementIndexTest, ExclusionDescentSkipsUsedSites) {
  PlacementIndex index({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0});
  EXPECT_EQ(index.MinSiteExcluding({0}), 1);
  EXPECT_EQ(index.MinSiteExcluding({0, 1}), 2);
  EXPECT_EQ(index.MinSiteExcluding({1, 3}), 0);
  EXPECT_EQ(index.MinSiteExcluding({0, 1, 2, 3, 4, 5}), 6);
  EXPECT_EQ(index.MinSiteExcluding({0, 1, 2, 3, 4, 5, 6}), -1);
}

TEST(PlacementIndexTest, NonPowerOfTwoSiteCountsPadCleanly) {
  for (int p : {1, 2, 3, 5, 6, 7, 9, 13, 100}) {
    std::vector<double> loads;
    Rng rng(static_cast<uint64_t>(p));
    for (int s = 0; s < p; ++s) loads.push_back(rng.UniformDouble(0, 10));
    PlacementIndex index(loads);
    const int expect = static_cast<int>(
        std::min_element(loads.begin(), loads.end()) - loads.begin());
    EXPECT_EQ(index.MinSite(), expect) << "P=" << p;
  }
}

TEST(PlacementIndexTest, RandomizedAgainstLinearScan) {
  Rng rng(testing_util::FuzzSeed(20260806));
  for (int trial = 0; trial < 200; ++trial) {
    const int p = 1 + static_cast<int>(rng.Index(50));
    std::vector<double> loads;
    for (int s = 0; s < p; ++s) {
      // Coarse values force frequent ties.
      loads.push_back(static_cast<double>(rng.Index(6)));
    }
    PlacementIndex index(loads);
    std::vector<int> excluded;
    for (int s = 0; s < p; ++s) {
      if (rng.Index(3) == 0) excluded.push_back(s);
    }
    int expect = -1;
    double best = 0.0;
    for (int s = 0; s < p; ++s) {
      if (std::binary_search(excluded.begin(), excluded.end(), s)) continue;
      if (expect < 0 || loads[static_cast<size_t>(s)] < best) {
        expect = s;
        best = loads[static_cast<size_t>(s)];
      }
    }
    EXPECT_EQ(index.MinSiteExcluding(excluded), expect)
        << "trial " << trial << " P=" << p;
  }
}

TEST(PlacementIndexTest, ThresholdStraddlingSizesAgree) {
  // Exercise both storage modes (leaf scan at P <= kLinearScanMaxSites,
  // tournament tree above) on either side of the cutover, against the
  // reference scan.
  Rng rng(testing_util::FuzzSeed(20260807));
  for (int p : {PlacementIndex::kLinearScanMaxSites - 1,
                PlacementIndex::kLinearScanMaxSites,
                PlacementIndex::kLinearScanMaxSites + 1,
                2 * PlacementIndex::kLinearScanMaxSites}) {
    std::vector<double> loads;
    for (int s = 0; s < p; ++s) {
      loads.push_back(static_cast<double>(rng.Index(7)));
    }
    PlacementIndex index(loads);
    for (int trial = 0; trial < 50; ++trial) {
      std::vector<int> excluded;
      for (int s = 0; s < p; ++s) {
        if (rng.Index(4) == 0) excluded.push_back(s);
      }
      int expect = -1;
      double best = 0.0;
      for (int s = 0; s < p; ++s) {
        if (std::binary_search(excluded.begin(), excluded.end(), s)) continue;
        if (expect < 0 || loads[static_cast<size_t>(s)] < best) {
          expect = s;
          best = loads[static_cast<size_t>(s)];
        }
      }
      EXPECT_EQ(index.MinSiteExcluding(excluded), expect)
          << "P=" << p << " trial " << trial;
      const int site = static_cast<int>(rng.Index(static_cast<size_t>(p)));
      loads[static_cast<size_t>(site)] = static_cast<double>(rng.Index(7));
      index.Update(site, loads[static_cast<size_t>(site)]);
    }
  }
}

/// Differential property: OPERATORSCHEDULE and the linear-scan oracle
/// (tests/oracles/operator_schedule_oracle.h) produce byte-identical
/// schedules — same clone-to-site mapping in the same placement order,
/// bit-equal makespan — on random instances at machine sizes up to
/// P=4096, for both site-selection rules, with and without rooted
/// operators and a residual base load (the online scheduler's branch).
class DifferentialPlacementTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(DifferentialPlacementTest, IndexedMatchesLinearOracle) {
  const auto [p, seed] = GetParam();
  OverlapUsageModel usage(0.5);
  Rng rng(testing_util::FuzzSeed(seed) + static_cast<uint64_t>(p));
  const int dims = 2 + static_cast<int>(rng.Index(2));
  const int num_ops = 12 + static_cast<int>(rng.Index(20));
  std::vector<ParallelizedOp> ops;
  for (int i = 0; i < num_ops; ++i) {
    const int max_degree = std::min(p, 8);
    const int degree =
        1 + static_cast<int>(rng.Index(static_cast<size_t>(max_degree)));
    std::vector<WorkVector> clones;
    for (int k = 0; k < degree; ++k) {
      WorkVector w(static_cast<size_t>(dims));
      for (int r = 0; r < dims; ++r) {
        // Quantized work forces load ties, the tie-break stress case.
        w[static_cast<size_t>(r)] = static_cast<double>(rng.Index(5));
      }
      clones.push_back(std::move(w));
    }
    std::vector<int> home;
    if (rng.Index(4) == 0) {
      // Rooted: home at `degree` distinct random sites.
      while (static_cast<int>(home.size()) < degree) {
        const int s = static_cast<int>(rng.Index(static_cast<size_t>(p)));
        if (std::find(home.begin(), home.end(), s) == home.end()) {
          home.push_back(s);
        }
      }
    }
    ops.push_back(MakeOp(i, std::move(clones), usage, std::move(home)));
  }

  std::vector<WorkVector> base;
  const bool with_base = rng.Index(2) == 0;
  if (with_base) {
    for (int s = 0; s < p; ++s) {
      WorkVector w(static_cast<size_t>(dims));
      for (int r = 0; r < dims; ++r) {
        w[static_cast<size_t>(r)] = static_cast<double>(rng.Index(4));
      }
      base.push_back(std::move(w));
    }
  }

  for (SiteChoice choice :
       {SiteChoice::kLeastLoaded, SiteChoice::kFirstAllowable}) {
    for (ListOrder order :
         {ListOrder::kDecreasingLength, ListOrder::kInputOrder}) {
      OperatorScheduleOptions options;
      options.order = order;
      options.site_choice = choice;
      options.base_load = with_base ? &base : nullptr;

      auto a = oracle::LinearScanOperatorSchedule(ops, p, dims, options);
      auto b = OperatorSchedule(ops, p, dims, options);
      ASSERT_TRUE(a.ok()) << a.status().ToString();
      ASSERT_TRUE(b.ok()) << b.status().ToString();
      ASSERT_TRUE(b->Validate(ops).ok());
      ASSERT_EQ(a->num_placements(), b->num_placements());
      for (int i = 0; i < a->num_placements(); ++i) {
        const ClonePlacement& pa = a->placements()[static_cast<size_t>(i)];
        const ClonePlacement& pb = b->placements()[static_cast<size_t>(i)];
        ASSERT_EQ(pa.op_id, pb.op_id) << "P=" << p << " placement " << i;
        ASSERT_EQ(pa.clone_idx, pb.clone_idx)
            << "P=" << p << " placement " << i;
        ASSERT_EQ(pa.site, pb.site)
            << "P=" << p << " op" << pa.op_id << " clone " << pa.clone_idx
            << " base=" << with_base
            << " first_allowable=" << (choice == SiteChoice::kFirstAllowable);
      }
      // Identical placements make every derived quantity bit-equal.
      ASSERT_EQ(a->Makespan(), b->Makespan());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DifferentialPlacementTest,
    ::testing::Combine(::testing::Values(4, 64, 1024, 4096),
                       ::testing::Values(1u, 2u, 3u)));

}  // namespace
}  // namespace mrs
