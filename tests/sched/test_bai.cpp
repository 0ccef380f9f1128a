// Adaptive best-arm scheduler (bai-search): determinism contracts, budget
// discipline, and the fresh-replay saving that justifies its existence.
#include "sched/bai.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "runtime/spec_io.hpp"
#include "sched/eval_cache.hpp"
#include "sched/evaluator.hpp"
#include "sched/exhaustive.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "workload/presets.hpp"

namespace wfe::sched {
namespace {

plat::PlatformSpec platform() { return wl::cori_like_platform(); }

PlanOptions stochastic_options(int threads = 1) {
  PlanOptions options;
  options.threads = threads;
  options.jitter_cv = 0.1;
  options.probe_samples = 8;
  return options;
}

// The hard gate from the design: on deterministic probe scenarios
// (jitter_cv == 0) bai-search must return a placement BIT-IDENTICAL to
// exhaustive enumeration — the adaptive search degenerates to one probe
// per arm with exhaustive's exact memo keys.
TEST(BaiSearch, DeterministicPathBitIdenticalToExhaustive) {
  struct Case {
    int members, analyses, pool;
  };
  for (const Case& c :
       std::vector<Case>{{2, 1, 3}, {2, 2, 3}, {3, 1, 4}, {2, 2, 4}}) {
    const auto shape = EnsembleShape::paper_like(c.members, c.analyses);
    const Schedule bai =
        BaiSearch().plan(shape, platform(), {c.pool});
    const Schedule exhaustive =
        Exhaustive().plan(shape, platform(), {c.pool});
    EXPECT_EQ(rt::spec_to_text(bai.spec), rt::spec_to_text(exhaustive.spec))
        << c.members << "x" << c.analyses << "/pool" << c.pool;
    EXPECT_EQ(bai.scheduler, "bai-search");
    EXPECT_EQ(bai.samples, bai.evaluations + bai.cache_hits);
  }
}

// probe_samples > 1 with jitter off is still the deterministic path: every
// draw would be identical, so the search must not multiply the cost.
TEST(BaiSearch, DeterministicProbesIgnoreProbeSamples) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  PlanOptions options;
  options.probe_samples = 8;
  const Schedule a = BaiSearch().plan(shape, platform(), {3}, options);
  const Schedule b = BaiSearch().plan(shape, platform(), {3});
  EXPECT_EQ(rt::spec_to_text(a.spec), rt::spec_to_text(b.spec));
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// Deterministic probes share memo keys with exhaustive, so a shared
// EvalCache warmed by one scheduler makes the other plan for free.
TEST(BaiSearch, SharesCacheEntriesWithExhaustive) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  EvalCache cache;
  PlanOptions options;
  options.shared_cache = &cache;
  const Schedule warmup = Exhaustive().plan(shape, platform(), {3}, options);
  EXPECT_GT(warmup.evaluations, 0u);
  const Schedule bai = BaiSearch().plan(shape, platform(), {3}, options);
  EXPECT_EQ(bai.evaluations, 0u);
  EXPECT_GT(bai.shared_hits, 0u);
  EXPECT_EQ(rt::spec_to_text(bai.spec), rt::spec_to_text(warmup.spec));
}

// Stochastic probes: the winning placement (and every cost counter) must
// be byte-identical across reruns and planner thread counts — the LUCB
// trajectory is driven by seeded draws, not scheduling races.
TEST(BaiSearch, StochasticWinnerByteStableAcrossRerunsAndThreads) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  const Schedule reference =
      BaiSearch().plan(shape, platform(), {3}, stochastic_options(1));
  ASSERT_GT(reference.samples, 0u);
  for (const int threads : {1, 2, 8}) {
    for (int rep = 0; rep < 2; ++rep) {
      const Schedule schedule = BaiSearch().plan(
          shape, platform(), {3}, stochastic_options(threads));
      EXPECT_EQ(rt::spec_to_text(schedule.spec),
                rt::spec_to_text(reference.spec))
          << "threads=" << threads << " rep=" << rep;
      EXPECT_EQ(schedule.samples, reference.samples)
          << "threads=" << threads;
      EXPECT_EQ(schedule.evaluations, reference.evaluations)
          << "threads=" << threads;
    }
  }
}

TEST(BaiSearch, RespectsMaxSamplesBudget) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  PlanOptions options = stochastic_options();
  options.max_samples = 20;
  const Schedule schedule = BaiSearch().plan(shape, platform(), {3}, options);
  EXPECT_LE(schedule.samples, 20u);
  EXPECT_NO_THROW(schedule.spec.validate(platform()));

  // A budget below one-sample-per-arm is floored, never starved: the
  // search still probes every arm once and returns a validated placement.
  options.max_samples = 1;
  const Schedule floored =
      BaiSearch().plan(shape, platform(), {3}, options);
  EXPECT_GT(floored.samples, 1u);
  EXPECT_NO_THROW(floored.spec.validate(platform()));
}

// The headline property: on a stochastic scenario the adaptive search
// reaches the fixed-budget winner's quality with FEWER fresh replays than
// fixed-budget exhaustive sampling spends on the same candidate set.
TEST(BaiSearch, SavesFreshReplaysVsFixedBudgetAtEqualQuality) {
  const auto shape = EnsembleShape::paper_like(2, 1);
  const Schedule bai =
      BaiSearch().plan(shape, platform(), {3}, stochastic_options());
  const Schedule fixed =
      Exhaustive().plan(shape, platform(), {3}, stochastic_options());
  EXPECT_LT(bai.evaluations, fixed.evaluations);
  EXPECT_LT(bai.samples, fixed.samples);

  Evaluator evaluator(platform());
  const double f_bai = evaluator.score(bai.spec).objective;
  const double f_fixed = evaluator.score(fixed.spec).objective;
  EXPECT_GE(f_bai + 1e-12, f_fixed);
}

TEST(BaiSearch, CapsComponentCount) {
  EXPECT_THROW((void)BaiSearch().plan(EnsembleShape::paper_like(7, 1),
                                      platform(), {3}),
               InvalidArgument);
}

TEST(BaiSearch, ThrowsWhenNothingFitsStochastic) {
  auto small = platform();
  small.node.cores = 8;  // the 16-core simulation can never fit
  EXPECT_THROW((void)BaiSearch().plan(EnsembleShape::paper_like(1, 1), small,
                                      {2}, stochastic_options()),
               SpecError);
}

// Golden LUCB trajectories. Every constant below was recorded from the
// all-arm-scan implementation of the search loop (leader, noise range and
// challenger each rescanned over every arm, every round); the survivor
// list and running noise range must reproduce them exactly: the same
// samples in the same order, the same eliminations, the same winner.
// `seed` perturbs the demand the way planbench does (seed 0 is the paper
// demand; others scale atoms and analysis kernel cost by [0.9, 1.1)), so
// each case runs a different trajectory over the same candidate space.
struct TrajectoryCase {
  int members, analyses, pool;
  std::uint64_t seed;
  std::size_t samples, evaluations, cache_hits;
  const char* placement;          ///< placement_signature(winner)
  std::uint64_t objective_bits;   ///< deterministic probe objective
};

// Stable test names in listings (the default printer dumps raw bytes,
// including the placement pointer).
void PrintTo(const TrajectoryCase& c, std::ostream* os) {
  *os << c.members << "x" << c.analyses << "/pool" << c.pool << " seed "
      << c.seed;
}

EnsembleShape seeded_demand(int members, int analyses, std::uint64_t seed) {
  EnsembleShape shape = EnsembleShape::paper_like(members, analyses);
  if (seed == 0) return shape;
  Xoshiro256 rng(seed);
  for (MemberShape& m : shape.members) {
    m.sim.natoms = static_cast<std::size_t>(std::llround(
        static_cast<double>(m.sim.natoms) * rng.uniform(0.9, 1.1)));
  }
  for (MemberShape& m : shape.members) {
    for (rt::AnalysisSpec& a : m.analyses) {
      a.cost.instr_per_element_sweep *= rng.uniform(0.9, 1.1);
    }
  }
  return shape;
}

/// "sim/ana/ana ..." node ids per member, members separated by spaces.
std::string placement_signature(const rt::EnsembleSpec& spec) {
  const auto nodes = [](const auto& ids) {
    std::string out;
    for (const int id : ids) {
      if (!out.empty()) out += '+';
      out += std::to_string(id);
    }
    return out;
  };
  std::string out;
  for (const rt::MemberSpec& m : spec.members) {
    if (!out.empty()) out += ' ';
    out += nodes(m.sim.nodes);
    for (const rt::AnalysisSpec& a : m.analyses) out += '/' + nodes(a.nodes);
  }
  return out;
}

class BaiTrajectory : public ::testing::TestWithParam<TrajectoryCase> {};

TEST_P(BaiTrajectory, MatchesGoldenAtEveryThreadCount) {
  const TrajectoryCase& c = GetParam();
  const EnsembleShape shape = seeded_demand(c.members, c.analyses, c.seed);
  for (const int threads : {1, 2, 4}) {
    PlanOptions options;
    options.threads = threads;
    options.jitter_cv = 0.1;
    options.probe_samples = 4;
    const Schedule s = BaiSearch().plan(shape, platform(), {c.pool}, options);
    const double objective =
        Evaluator(platform()).score(s.spec, options.probe_steps).objective;
    EXPECT_EQ(s.samples, c.samples) << "threads=" << threads;
    EXPECT_EQ(s.evaluations, c.evaluations) << "threads=" << threads;
    EXPECT_EQ(s.cache_hits, c.cache_hits) << "threads=" << threads;
    EXPECT_EQ(placement_signature(s.spec), c.placement)
        << "threads=" << threads;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(objective), c.objective_bits)
        << "threads=" << threads << " objective=" << objective;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Golden, BaiTrajectory,
    ::testing::Values(
        TrajectoryCase{2, 1, 3, 0, 29, 26, 0, "0/0 1/1",
                       0x3f90e31720d006c8ULL},
        TrajectoryCase{2, 1, 3, 1, 33, 30, 0, "0/0 1/1",
                       0x3f90977406bb331cULL},
        TrajectoryCase{2, 1, 3, 2, 43, 40, 0, "0/0 1/1",
                       0x3f8cf77203ccd752ULL},
        TrajectoryCase{2, 1, 3, 3, 30, 27, 0, "0/0 1/1",
                       0x3f9094f22ee66b13ULL},
        TrajectoryCase{2, 2, 4, 0, 392, 337, 0, "0/0/0 1/1/1",
                       0x3f89b70b1f67fa68ULL},
        TrajectoryCase{2, 2, 4, 1, 368, 313, 0, "0/0/0 1/1/1",
                       0x3f89698d567af728ULL},
        TrajectoryCase{2, 2, 4, 2, 387, 332, 0, "0/0/0 1/1/1",
                       0x3f876fcaa1eb83beULL},
        TrajectoryCase{2, 2, 4, 3, 368, 313, 0, "0/0/0 1/1/1",
                       0x3f89ff876c08ff0cULL},
        TrajectoryCase{3, 2, 4, 0, 15901, 7610, 0, "0/0/0 1/1/1 2/2/2",
                       0x3f8124b214effc45ULL},
        TrajectoryCase{3, 2, 4, 1, 14775, 6484, 0, "0/0/0 1/1/1 2/2/2",
                       0x3f8043afcb81941aULL},
        TrajectoryCase{3, 2, 4, 2, 15416, 7125, 0, "0/0/0 1/1/1 2/2/2",
                       0x3f7f9c5899f91475ULL},
        TrajectoryCase{3, 2, 4, 3, 15298, 7007, 0, "0/0/0 1/1/1 2/2/2",
                       0x3f80f8937a72d880ULL}
    ),
    [](const ::testing::TestParamInfo<TrajectoryCase>& info) {
      const TrajectoryCase& c = info.param;
      return std::to_string(c.members) + "x" + std::to_string(c.analyses) +
             "_pool" + std::to_string(c.pool) + "_seed" +
             std::to_string(c.seed);
    });

TEST(BaiSearch, RejectsZeroProbeSamples) {
  PlanOptions options;
  options.probe_samples = 0;
  EXPECT_THROW((void)BaiSearch().plan(EnsembleShape::paper_like(2, 1),
                                      platform(), {3}, options),
               InvalidArgument);
}

}  // namespace
}  // namespace wfe::sched
