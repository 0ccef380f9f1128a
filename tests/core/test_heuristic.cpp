// §3.4 provisioning heuristic.
#include "core/heuristic.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/insitu.hpp"
#include "support/error.hpp"

namespace wfe::core {
namespace {

/// Synthetic analysis scaling: A(c) = work / speedup(c), fixed read time.
AnaSteady scaled(double work, double read, int cores, double f = 0.92) {
  const double speedup = 1.0 / ((1.0 - f) + f / cores);
  return AnaSteady{read, work / speedup};
}

TEST(Heuristic, RejectsBadInputs) {
  const SimSteady sim{10.0, 1.0};
  EXPECT_THROW((void)provision_analysis_cores(sim, nullptr, 8),
               InvalidArgument);
  EXPECT_THROW(
      (void)provision_analysis_cores(
          sim, [](int c) { return scaled(10, 0.5, c); }, 0),
      InvalidArgument);
}

TEST(Heuristic, EvaluatesEveryCoreCount) {
  const SimSteady sim{10.0, 1.0};
  const auto result = provision_analysis_cores(
      sim, [](int c) { return scaled(20.0, 0.5, c); }, 16);
  EXPECT_EQ(result.candidates.size(), 16u);
  for (int c = 1; c <= 16; ++c) {
    EXPECT_EQ(result.candidates[static_cast<std::size_t>(c - 1)].cores, c);
  }
}

TEST(Heuristic, PicksMaxEfficiencyAmongFeasible) {
  // The paper's own shape: feasibility kicks in at some core count; among
  // feasible counts the SMALLEST one has the largest R+A and thus max E,
  // so the heuristic should pick the first feasible count.
  const SimSteady sim{10.0, 1.0};
  const auto result = provision_analysis_cores(
      sim, [](int c) { return scaled(30.0, 0.5, c); }, 32);
  ASSERT_TRUE(result.any_feasible);
  const auto& chosen = result.candidates[result.chosen_index];
  EXPECT_TRUE(chosen.feasible);
  // No feasible candidate has higher efficiency.
  for (const auto& c : result.candidates) {
    if (c.feasible) {
      EXPECT_LE(c.efficiency, chosen.efficiency + 1e-12);
    }
  }
  // And the chosen one is the boundary: one fewer core is infeasible.
  if (result.cores > 1) {
    EXPECT_FALSE(
        result.candidates[static_cast<std::size_t>(result.cores - 2)]
            .feasible);
  }
}

TEST(Heuristic, SigmaMinimizedByChoice) {
  const SimSteady sim{10.0, 1.0};
  const auto result = provision_analysis_cores(
      sim, [](int c) { return scaled(30.0, 0.5, c); }, 32);
  const double chosen_sigma = result.candidates[result.chosen_index].sigma;
  for (const auto& c : result.candidates) {
    EXPECT_GE(c.sigma, chosen_sigma - 1e-12);
  }
}

TEST(Heuristic, AllFeasibleStillPicksMaxE) {
  // A very cheap analysis is feasible everywhere; E decreases with cores,
  // so 1 core wins.
  const SimSteady sim{10.0, 1.0};
  const auto result = provision_analysis_cores(
      sim, [](int c) { return scaled(5.0, 0.1, c); }, 8);
  EXPECT_TRUE(result.any_feasible);
  EXPECT_EQ(result.cores, 1);
}

TEST(Heuristic, NothingFeasibleFallsBackToMinSigma) {
  // The analysis is slower than the simulation at every core count.
  const SimSteady sim{1.0, 0.1};
  const auto result = provision_analysis_cores(
      sim, [](int c) { return scaled(100.0, 0.5, c); }, 8);
  EXPECT_FALSE(result.any_feasible);
  EXPECT_EQ(result.cores, 8);  // the fastest analysis wins on sigma
}

TEST(Heuristic, CandidatesCarryConsistentModel) {
  const SimSteady sim{12.0, 0.5};
  const auto result = provision_analysis_cores(
      sim, [](int c) { return scaled(25.0, 0.3, c); }, 16);
  for (const auto& c : result.candidates) {
    const MemberSteady m{sim, {c.analysis}};
    EXPECT_DOUBLE_EQ(c.sigma, non_overlapped_segment(m));
    EXPECT_EQ(c.feasible, is_idle_analyzer_feasible(m));
  }
}

}  // namespace
}  // namespace wfe::core
