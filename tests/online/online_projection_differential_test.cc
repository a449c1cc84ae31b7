// Differential test of ProjectContendedPhase (eq. (2) in closed form over
// each touched site's remaining work) against the union-schedule + fluid
// simulation projection it replaced (tests/oracles/): random residents
// and new placements over P in {1, 16, 64} and d in {1, 3, 12}, plus the
// edge cases the closed form is easiest to get wrong. Every per-clone
// finish, the barrier and the serial bound must match bit for bit.
// MRS_FUZZ_SEED replays a failure exactly (test_util.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "online/online_scheduler.h"
#include "oracles/online_projection_oracle.h"
#include "resource/usage_model.h"
#include "test_util.h"

namespace mrs {
namespace {

constexpr uint64_t kDefaultSeed = 20261017;
constexpr int kTrialsPerShape = 25;
constexpr double kRetireTol = 1e-9;  // the scheduler's retirement slack

using Residents = std::vector<std::vector<ResidentClone>>;

/// A work vector with components spread over seven decades; about one
/// component in five is exactly zero.
WorkVector RandomWork(int dims, Rng* rng) {
  WorkVector w(static_cast<size_t>(dims));
  for (int i = 0; i < dims; ++i) {
    if (!rng->Bernoulli(0.2)) {
      w[static_cast<size_t>(i)] = rng->LogUniform(1e-3, 1e4);
    }
  }
  return w;
}

/// T_seq under a random EA2 overlap, so max <= T_seq <= sum holds.
double RandomTSeq(const WorkVector& w, Rng* rng) {
  return OverlapUsageModel(rng->UniformDouble()).SequentialTime(w);
}

/// What PlaceNextPhase does before projecting: drop the reservations
/// finished by now (+ slack).
void Retire(Residents* resident, double now) {
  for (auto& site : *resident) {
    std::erase_if(site, [now](const ResidentClone& c) {
      return c.finish <= now + kRetireTol;
    });
  }
}

/// Retires like PlaceNextPhase, projects with both engines and requires
/// bit-identical output.
void ExpectSameProjection(const std::vector<ClonePlacement>& placements,
                          Residents resident, double now, int dims) {
  Retire(&resident, now);
  auto got = ProjectContendedPhase(placements, resident, now);
  auto want = oracle::ProjectContendedPhase(placements, resident, now, dims);
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got.status().code(), want.status().code());
    return;
  }
  ASSERT_EQ(got->clone_finish.size(), want->clone_finish.size());
  for (size_t i = 0; i < want->clone_finish.size(); ++i) {
    EXPECT_EQ(got->clone_finish[i], want->clone_finish[i]) << "clone " << i;
  }
  EXPECT_EQ(got->barrier_ms, want->barrier_ms);
  EXPECT_EQ(got->serial_bound_ms, want->serial_bound_ms);
  EXPECT_EQ(got->residents, want->residents);
}

ClonePlacement NewClone(int op, int site, WorkVector work, double t_seq) {
  ClonePlacement p;
  p.op_id = op;
  p.site = site;
  p.work = std::move(work);
  p.t_seq = t_seq;
  return p;
}

/// A phase of random operators, each of random degree <= P on distinct
/// sites (constraint A), so several new clones often share a site.
std::vector<ClonePlacement> RandomPhase(int sites, int dims, Rng* rng) {
  std::vector<ClonePlacement> out;
  const int ops = static_cast<int>(rng->UniformInt(1, 4));
  for (int op = 0; op < ops; ++op) {
    std::vector<int> order(static_cast<size_t>(sites));
    for (int s = 0; s < sites; ++s) order[static_cast<size_t>(s)] = s;
    rng->Shuffle(&order);
    const int degree = static_cast<int>(rng->UniformInt(1, sites));
    for (int k = 0; k < degree; ++k) {
      WorkVector w = RandomWork(dims, rng);
      const double t = RandomTSeq(w, rng);
      out.push_back(
          NewClone(op, order[static_cast<size_t>(k)], std::move(w), t));
    }
  }
  return out;
}

/// Random residents: per site 0-6 reservations started before `now`,
/// about one in six finishing by `now` (retired before projecting).
Residents RandomResidents(int sites, int dims, double now, Rng* rng) {
  Residents resident(static_cast<size_t>(sites));
  for (auto& site : resident) {
    const int n = static_cast<int>(rng->UniformInt(0, 6));
    for (int i = 0; i < n; ++i) {
      ResidentClone c;
      c.query = rng->Next() % 32;
      c.work = RandomWork(dims, rng);
      c.t_seq = RandomTSeq(c.work, rng);
      c.start = now - rng->UniformDouble(0.0, 2.0 * c.t_seq + 1.0);
      c.finish = rng->Bernoulli(1.0 / 6)
                     ? now - rng->UniformDouble(0.0, 1.0)
                     : now + rng->LogUniform(1e-6, 4.0 * c.t_seq + 1.0);
      site.push_back(std::move(c));
    }
  }
  return resident;
}

TEST(OnlineProjectionDifferentialTest, RandomResidentsAndPhases) {
  const uint64_t seed = testing_util::FuzzSeed(kDefaultSeed);
  SCOPED_TRACE(::testing::Message() << "MRS_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (const int sites : {1, 16, 64}) {
    for (const int dims : {1, 3, 12}) {
      for (int trial = 0; trial < kTrialsPerShape; ++trial) {
        SCOPED_TRACE(::testing::Message() << "P=" << sites << " d=" << dims
                                          << " trial " << trial);
        const double now =
            rng.Bernoulli(0.2) ? 0.0 : rng.LogUniform(1e-3, 1e6);
        ExpectSameProjection(RandomPhase(sites, dims, &rng),
                             RandomResidents(sites, dims, now, &rng), now,
                             dims);
      }
    }
  }
}

TEST(OnlineProjectionDifferentialTest, EdgeCases) {
  const uint64_t seed = testing_util::FuzzSeed(kDefaultSeed);
  SCOPED_TRACE(::testing::Message() << "MRS_FUZZ_SEED=" << seed);
  Rng rng(seed);
  for (const int sites : {1, 16, 64}) {
    for (const int dims : {1, 3, 12}) {
      SCOPED_TRACE(::testing::Message() << "P=" << sites << " d=" << dims);
      const double now = 1234.5;
      const std::vector<ClonePlacement> phase = RandomPhase(sites, dims, &rng);
      const int site0 = phase.front().site;

      // No residents anywhere.
      ExpectSameProjection(phase, Residents(static_cast<size_t>(sites)), now,
                           dims);

      // A zero-span resident (frac 0) that has not finished yet.
      Residents zero_span(static_cast<size_t>(sites));
      ResidentClone z;
      z.work = RandomWork(dims, &rng);
      z.t_seq = RandomTSeq(z.work, &rng);
      z.start = z.finish = now + 5.0;
      zero_span[static_cast<size_t>(site0)].push_back(z);
      ExpectSameProjection(phase, zero_span, now, dims);

      // Residents ending exactly at the retirement slack (retired) and
      // one ulp past it (kept, with a vanishing remaining fraction).
      for (const double finish :
           {now + kRetireTol, std::nextafter(now + kRetireTol, 2 * now)}) {
        Residents edge(static_cast<size_t>(sites));
        ResidentClone c;
        c.work = RandomWork(dims, &rng);
        c.t_seq = RandomTSeq(c.work, &rng);
        c.start = now - 3.0;
        c.finish = finish;
        edge[static_cast<size_t>(site0)].push_back(c);
        ExpectSameProjection(phase, edge, now, dims);
      }

      // Tied T_seq: every resident's remaining time and every new clone's
      // stand-alone time equal, so the own term ties everywhere.
      const double tie = 7.25;
      std::vector<ClonePlacement> tied = phase;
      for (ClonePlacement& p : tied) {
        p.work = WorkVector(static_cast<size_t>(dims));
        p.work[0] = tie;
        p.t_seq = tie;
      }
      Residents tied_res(static_cast<size_t>(sites));
      for (auto& site : tied_res) {
        ResidentClone c;
        c.work = WorkVector(static_cast<size_t>(dims));
        c.work[0] = 2 * tie;
        c.t_seq = 2 * tie;
        c.start = now - 10.0;
        c.finish = now + 10.0;  // half left: remaining own == tie
        site.push_back(c);
      }
      ExpectSameProjection(tied, tied_res, now, dims);

      // A new clone outside max <= T_seq <= sum is rejected by both.
      std::vector<ClonePlacement> bad = phase;
      bad.back().work = WorkVector(static_cast<size_t>(dims));
      bad.back().work[0] = 10.0;
      bad.back().t_seq = 1.0;
      ExpectSameProjection(bad, zero_span, now, dims);
    }
  }
}

}  // namespace
}  // namespace mrs
