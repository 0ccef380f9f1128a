// Placement search — the paper's future-work use case: enumerate every
// distinct placement of the paper-shaped ensemble on a 3-node pool, score
// each with F(P^{U,A,P}), and rank. The fully co-located C1.5 shape must
// come out on top.
//
// Phase 2 then scales the same search up (4 members over a 4-node pool,
// ~2.8k canonical candidates) and times it through the parallel
// BatchEvaluator, writing the throughput numbers to
// BENCH_placement_search.json.
// `--threads N` sets the worker count for both phases; the ranking and the
// winning placement are bit-identical for every N (see docs/PERF.md).
#include "bench_common.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "sched/scheduler.hpp"
#include "workload/generators.hpp"

namespace {

/// Render an assignment in the s0a0|s1a1 naming of enumerate_placements:
/// per member, the sim's node then each analysis' node.
std::string assignment_name(const wfe::sched::EnsembleShape& shape,
                            const wfe::sched::Assignment& assignment) {
  std::string out;
  std::size_t slot = 0;
  for (const auto& m : shape.members) {
    if (!out.empty()) out += "|";
    out += "s" + std::to_string(assignment[slot++]);
    for (std::size_t a = 0; a < m.analyses.size(); ++a) {
      out += "a" + std::to_string(assignment[slot++]);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wfe;
  using core::IndicatorKind;

  int threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    }
  }
  if (threads < 1) threads = 1;

  bench::print_banner(
      "Placement search (paper §7, future work)",
      "Exhaustive enumeration of component placements for 2 members x\n"
      "(1 simulation + 1 analysis) over 3 nodes, ranked by F(P^{U,A,P}).\n"
      "Names encode assignments: s0a0|s1a1 means member 1 fully on node 0\n"
      "and member 2 fully on node 1 (= C1.5).");

  const auto platform = wl::cori_like_platform();

  wl::EnumerationOptions opt;
  opt.members = 2;
  opt.analyses_per_member = 1;
  opt.node_pool = 3;
  auto candidates = wl::enumerate_placements(platform, opt);

  std::vector<rt::EnsembleSpec> specs;
  specs.reserve(candidates.size());
  for (auto& c : candidates) {
    c.spec.n_steps = 6;  // steady state is immediate in simulated mode
    specs.push_back(c.spec);
  }
  sched::BatchEvaluator evaluator(platform, threads);
  const auto scores = evaluator.score_specs(specs);

  struct Scored {
    std::string name;
    int nodes;
    double f;
    double makespan;
  };
  std::vector<Scored> scored;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    scored.push_back({candidates[i].name, candidates[i].nodes,
                      scores[i].eval.objective,
                      scores[i].eval.ensemble_makespan});
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& x, const Scored& y) { return x.f > y.f; });

  Table table({"rank", "placement", "nodes (M)", "F(P^{U,A,P})",
               "ensemble makespan [s]"});
  for (std::size_t i = 0; i < scored.size(); ++i) {
    table.add_row({strprintf("%zu", i + 1), scored[i].name,
                   strprintf("%d", scored[i].nodes), sci(scored[i].f, 3),
                   fixed(scored[i].makespan, 1)});
  }
  std::cout << table.render();
  std::cout << "\nBest placement: " << scored.front().name
            << (scored.front().name == "s0a0|s1a1"
                    ? "  (C1.5's shape, matching the paper)"
                    : "")
            << "\n";

  // Phase 2: the scaled-up search the parallel evaluator exists for. 4 members
  // x (1 sim + 1 analysis) = 8 slots over a 4-node pool -> 2795 canonical
  // candidates, each infeasibility-checked and (if feasible) replayed.
  const auto big_shape = sched::EnsembleShape::paper_like(4, 1);
  const int big_pool = 4;
  const auto assignments =
      sched::enumerate_assignments(sched::slot_count(big_shape), big_pool);
  std::cout << "\nScaled search: 4 members x (1 sim + 1 analysis) over "
            << big_pool << " nodes, " << assignments.size()
            << " canonical placements, threads=" << threads << "\n";

  sched::BatchEvaluator big(platform, threads);
  const bench::Stopwatch timer;
  const auto big_scores = big.score_assignments(big_shape, assignments);
  const double wall_s = timer.seconds();

  std::vector<sched::ScoredCandidate> reduced;
  reduced.reserve(big_scores.size());
  for (const auto& s : big_scores) reduced.push_back(s.scored());
  const auto winner = sched::pick_winner(reduced, assignments);

  const std::size_t evals = big.evaluations();
  const std::uint64_t events = big.events_processed();
  std::cout << "  replays:      " << evals << " (of " << assignments.size()
            << " candidates; the rest failed validation)\n"
            << "  wall clock:   " << fixed(wall_s, 3) << " s\n"
            << "  evaluations/s: "
            << fixed(static_cast<double>(evals) / wall_s, 1) << "\n"
            << "  engine events: " << events << " ("
            << sci(static_cast<double>(events) / wall_s, 3) << " events/s)\n";
  if (winner) {
    std::cout << "  best placement: "
              << assignment_name(big_shape, assignments[*winner]) << "  F = "
              << sci(big_scores[*winner].eval.objective, 3) << "\n";
  }

  bench::JsonReport report;
  report.add("bench", "placement_search");
  report.add("threads", threads);
  report.add("candidates", assignments.size());
  report.add("evaluations", evals);
  report.add("wall_s", wall_s);
  report.add("evaluations_per_s", static_cast<double>(evals) / wall_s);
  report.add("engine_events", events);
  report.add("engine_events_per_s", static_cast<double>(events) / wall_s);
  if (winner) {
    report.add("best_placement",
               assignment_name(big_shape, assignments[*winner]));
    report.add("best_objective", big_scores[*winner].eval.objective);
  }
  report.write("BENCH_placement_search.json");
  return 0;
}
