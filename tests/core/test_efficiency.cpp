// Eq. (3): computational efficiency.
#include "core/efficiency.hpp"

#include <gtest/gtest.h>

#include "core/insitu.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace wfe::core {
namespace {

MemberSteady member(double s, double w,
                    std::vector<std::pair<double, double>> ras) {
  MemberSteady m;
  m.sim = {s, w};
  for (const auto& [r, a] : ras) m.analyses.push_back({r, a});
  return m;
}

TEST(Efficiency, PerfectBalanceGivesOne) {
  // S + W == R + A for every coupling: nobody idles.
  EXPECT_DOUBLE_EQ(computational_efficiency(member(5, 1, {{2, 4}})), 1.0);
  EXPECT_DOUBLE_EQ(
      computational_efficiency(member(5, 1, {{2, 4}, {1, 5}})), 1.0);
}

TEST(Efficiency, ZeroLengthStepIsUndefined) {
  EXPECT_THROW((void)computational_efficiency(member(0, 0, {{0, 0}})),
               InvalidArgument);
}

TEST(Efficiency, IdleAnalyzerKnownValue) {
  // sigma = 10+1 = 11; single coupling with R+A = 5.5 -> E = 0.5... compute:
  // E = (S+W)/sigma + (R+A)/sigma - 1 = 1 + 0.5 - 1 = 0.5.
  EXPECT_DOUBLE_EQ(computational_efficiency(member(10, 1, {{1.5, 4.0}})),
                   0.5);
}

TEST(Efficiency, IdleSimulationKnownValue) {
  // sigma = R+A = 22; S+W = 11 -> E = 11/22 + 1 - 1 = 0.5.
  EXPECT_DOUBLE_EQ(computational_efficiency(member(10, 1, {{2.0, 20.0}})),
                   0.5);
}

TEST(Efficiency, ClosedFormEqualsCouplingAverage) {
  Xoshiro256 rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    const int k = 1 + static_cast<int>(rng.below(4));
    MemberSteady m;
    m.sim = {rng.uniform(0.5, 20.0), rng.uniform(0.0, 1.0)};
    for (int j = 0; j < k; ++j) {
      m.analyses.push_back({rng.uniform(0.0, 3.0), rng.uniform(0.5, 25.0)});
    }
    double avg = 0.0;
    for (std::size_t j = 0; j < m.analyses.size(); ++j) {
      avg += coupling_efficiency(m, j);
    }
    avg /= static_cast<double>(m.analyses.size());
    EXPECT_NEAR(computational_efficiency(m), avg, 1e-12);
  }
}

TEST(Efficiency, BoundedByOne) {
  // E <= 1 always and E > -1; single-coupling members are additionally
  // strictly positive (one of the two idle stages is always zero).
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    MemberSteady m;
    m.sim = {rng.uniform(0.1, 10.0), rng.uniform(0.0, 1.0)};
    const int k = 1 + static_cast<int>(rng.below(5));
    for (int j = 0; j < k; ++j) {
      m.analyses.push_back({rng.uniform(0.0, 2.0), rng.uniform(0.1, 15.0)});
    }
    const double e = computational_efficiency(m);
    EXPECT_LE(e, 1.0 + 1e-12);
    EXPECT_GT(e, -1.0);
    if (k == 1) {
      EXPECT_GT(e, 0.0);
    }
  }
}

TEST(Efficiency, SingleCouplingAlwaysPositive) {
  Xoshiro256 rng(5);
  for (int trial = 0; trial < 100; ++trial) {
    MemberSteady m;
    m.sim = {rng.uniform(0.01, 50.0), rng.uniform(0.0, 5.0)};
    m.analyses = {{rng.uniform(0.0, 5.0), rng.uniform(0.01, 80.0)}};
    EXPECT_GT(computational_efficiency(m), 0.0);
  }
}

TEST(Efficiency, MoreIdleMeansLowerEfficiency) {
  // Shrinking the analysis (more analyzer idle) lowers E in the
  // simulation-bound regime.
  const double e_tight = computational_efficiency(member(10, 1, {{1, 9.5}}));
  const double e_loose = computational_efficiency(member(10, 1, {{1, 3.0}}));
  EXPECT_GT(e_tight, e_loose);
}

TEST(Efficiency, SlowestCouplingDragsTheAverage) {
  // Adding a much slower analysis forces the fast coupling to idle.
  const double balanced = computational_efficiency(member(5, 1, {{2, 4}}));
  const double dragged =
      computational_efficiency(member(5, 1, {{2, 4}, {2, 20}}));
  EXPECT_GT(balanced, dragged);
}

TEST(Efficiency, MatchesPaperDiscussionShape) {
  // §3.4: among Eq. (4)-feasible allocations, the one with the largest
  // R+A (fewest idle cycles in the analysis) maximizes E.
  const MemberSteady cores8 = member(10, 1, {{1.0, 9.0}});   // R+A = 10
  const MemberSteady cores16 = member(10, 1, {{1.0, 6.0}});  // R+A = 7
  const MemberSteady cores32 = member(10, 1, {{1.0, 4.5}});  // R+A = 5.5
  EXPECT_TRUE(is_idle_analyzer_feasible(cores8));
  EXPECT_GT(computational_efficiency(cores8),
            computational_efficiency(cores16));
  EXPECT_GT(computational_efficiency(cores16),
            computational_efficiency(cores32));
}

}  // namespace
}  // namespace wfe::core
