// Scheduler comparison — the paper's future-work direction, measured.
//
// For several ensemble shapes and node budgets, compare:
//   exhaustive       — oracle: enumerate + replay every placement
//   greedy-colocate  — indicator-guided constructive heuristic (no replays)
//   greedy-refine    — constructive seed + replay-guided hill climb
//   round-robin      — scatter baseline (typical batch-scheduler default)
//   random           — seeded random feasible placement
// reporting the achieved F(P^{U,A,P}), the ensemble makespan, and the
// planning cost in simulated replays (cache hits in parentheses).
//
// `--threads N` parallelizes the replay-driven schedulers' candidate
// scoring; every number in the table is identical for any N.
#include "bench_common.hpp"

#include <cstdlib>
#include <cstring>

#include "sched/evaluator.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"

int main(int argc, char** argv) {
  using namespace wfe;

  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    }
  }
  if (threads < 1) threads = 1;

  bench::print_banner(
      "Scheduler comparison (paper §7, future work)",
      "Indicator-guided scheduling vs baselines across ensemble shapes.\n"
      "Expected shape: greedy-colocate matches the exhaustive oracle's\n"
      "objective on these shapes at zero planning replays, while scatter\n"
      "baselines lose up to ~3x on F(P^{U,A,P}).");

  const auto platform = wl::cori_like_platform();
  sched::Evaluator evaluator(platform);
  sched::PlanOptions options;
  options.threads = threads;

  struct Case {
    int members, analyses, nodes;
  };
  const Case cases[] = {{1, 1, 2}, {2, 1, 3}, {2, 2, 3}, {3, 1, 3}, {2, 2, 4}};

  Table table({"shape (N x K / nodes)", "scheduler", "F(P^{U,A,P})",
               "ensemble makespan [s]", "nodes used", "planning replays"});
  for (const Case& c : cases) {
    const auto shape = sched::EnsembleShape::paper_like(c.members, c.analyses);
    const sched::ResourceBudget budget{c.nodes};
    for (const char* name : {"exhaustive", "greedy-colocate", "greedy-refine",
                             "round-robin", "random"}) {
      const auto scheduler = sched::make_scheduler(name);
      try {
        const sched::Schedule schedule =
            scheduler->plan(shape, platform, budget, options);
        const sched::Evaluation e = evaluator.score(schedule.spec);
        const std::string replays =
            schedule.cache_hits > 0
                ? strprintf("%zu (+%zu cached)", schedule.evaluations,
                            schedule.cache_hits)
                : strprintf("%zu", schedule.evaluations);
        table.add_row({strprintf("%d x %d / %d", c.members, c.analyses,
                                 c.nodes),
                       name, sci(e.objective, 3),
                       fixed(e.ensemble_makespan * 37.0 / 6.0, 0),
                       strprintf("%d", e.nodes_used), replays});
      } catch (const SpecError&) {
        table.add_row({strprintf("%d x %d / %d", c.members, c.analyses,
                                 c.nodes),
                       name, "infeasible", "-", "-", "-"});
      }
    }
    table.add_separator();
  }
  std::cout << table.render();
  return 0;
}
