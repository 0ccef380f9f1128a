// planbench: times what a WFEns user waits for — one plan — end to end,
// and attributes it to the planning layers from the outside.
//
//   planbench --workload plan-det|plan-jitter|replay-long --seed N
//             --seconds S --trace 0|1
//
// --trace 0 repeats the workload's operation for S seconds with no timer
// inside it and reports the end-to-end metrics (medians). --trace 1 drives
// the layers' public functions itself, in the scheduler's order, with a
// timer around every call, and reports the per-layer metrics. Either way
// every output is checked (plans against the run's first plan, a 1-thread
// plan and, for the default seed, the stored reference) and the report's
// last line is one JSON object. README.md in this directory has the
// workloads, the metrics and the predictions.
#include <time.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/recorder.hpp"
#include "runtime/bridge.hpp"
#include "runtime/simulated_executor.hpp"
#include "sched/batch_evaluator.hpp"
#include "sched/candidates.hpp"
#include "sched/evaluator.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"
#include "workload/paper_configs.hpp"
#include "workload/presets.hpp"

namespace {

using namespace wfe;

// ---------------------------------------------------------------------------
// Clocks and small statistics

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process: every planner thread counts.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

/// Time of a fixed scalar loop on this host: reports from two hosts are
/// compared as ratios to it, never against absolute floors.
double calibration_s() {
  std::vector<double> runs;
  for (int r = 0; r < 3; ++r) {
    const double t0 = wall_s();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    double acc = 0.0;
    for (int i = 0; i < 20'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      acc += static_cast<double>(x >> 40) * 1e-9;
    }
    runs.push_back(wall_s() - t0);
    if (acc < 0.0) std::abort();  // keeps the loop observable
  }
  return median(runs);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string bits_hex(double v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(bits(v)));
  return buf;
}

// ---------------------------------------------------------------------------
// Workloads. Each one is built from the seed alone; the program under test
// only ever sees the generated demand.

constexpr std::uint64_t kDefaultSeed = 0;  ///< the unperturbed paper demand
constexpr int kThreads = 2;                ///< planner threads (README: noise)
constexpr std::uint64_t kProbeSteps = 6;
constexpr std::uint64_t kLongSteps = 3000;  ///< in situ steps per long replay
/// Demand variants a timed plan run cycles through. A bai-search plan's
/// length follows its LUCB search, which each variant's draws decide (its
/// interquartile range over seeds is ~20% of the median); the median over
/// several variants leaves far less of that to the seed.
constexpr std::size_t kDemands = 8;

struct PlanWorkload {
  const char* name;
  const char* scheduler;
  int members;
  int analyses;
  int pool;
  double jitter_cv;
  std::uint64_t probe_samples;
};

constexpr PlanWorkload kPlanDet{"plan-det", "exhaustive", 3, 2, 5, 0.0, 1};
constexpr PlanWorkload kPlanJitter{"plan-jitter", "bai-search", 3, 2, 4, 0.1,
                                   4};

/// Reference outcome of both plan workloads at the default seed.
constexpr const char* kRefPlacement =
    "{sim 0: [0,0]}, {sim 1: [1,1]}, {sim 2: [2,2]}";
constexpr const char* kRefObjective = "8.370772613e-03";

/// Any seed but the default scales each simulation's atom count and each
/// analysis's per-element kernel cost by up to ±10%. Core counts stay, so
/// the candidate space and its feasible part are the same for every seed.
void perturb(std::vector<rt::SimulationSpec*> sims,
             std::vector<rt::AnalysisSpec*> analyses, std::uint64_t seed) {
  if (seed == kDefaultSeed) return;
  Xoshiro256 rng(seed);
  for (rt::SimulationSpec* s : sims) {
    s->natoms = static_cast<std::size_t>(
        std::llround(static_cast<double>(s->natoms) * rng.uniform(0.9, 1.1)));
  }
  for (rt::AnalysisSpec* a : analyses) {
    a->cost.instr_per_element_sweep *= rng.uniform(0.9, 1.1);
  }
}

sched::EnsembleShape plan_demand(const PlanWorkload& w, std::uint64_t seed) {
  sched::EnsembleShape shape =
      sched::EnsembleShape::paper_like(w.members, w.analyses);
  std::vector<rt::SimulationSpec*> sims;
  std::vector<rt::AnalysisSpec*> analyses;
  for (sched::MemberShape& m : shape.members) {
    sims.push_back(&m.sim);
    for (rt::AnalysisSpec& a : m.analyses) analyses.push_back(&a);
  }
  perturb(sims, analyses, seed);
  return shape;
}

/// The 15 Table 2 + Table 4 configurations at kLongSteps in situ steps.
std::vector<wl::NamedConfig> long_configs(std::uint64_t seed) {
  std::vector<wl::NamedConfig> configs = wl::paper_table2();
  for (wl::NamedConfig& c : wl::paper_table4()) configs.push_back(std::move(c));
  std::vector<rt::SimulationSpec*> sims;
  std::vector<rt::AnalysisSpec*> analyses;
  for (wl::NamedConfig& c : configs) {
    c.spec.n_steps = kLongSteps;
    for (rt::MemberSpec& m : c.spec.members) {
      sims.push_back(&m.sim);
      for (rt::AnalysisSpec& a : m.analyses) analyses.push_back(&a);
    }
  }
  perturb(sims, analyses, seed);
  return configs;
}

/// Stored reference for replay-long at the default seed: per configuration,
/// the bits of F(P^{U,A,P}) and of the measured ensemble makespan.
struct LongRef {
  const char* name;
  std::uint64_t objective;
  std::uint64_t makespan;
};
constexpr LongRef kLongRef[] = {
#include "replay_long_ref.inc"
};

/// Replay options for the benchmark's own replays: no obs mirroring.
rt::SimulatedOptions untraced_options() {
  rt::SimulatedOptions o;
  o.trace_obs = false;
  return o;
}

std::string placement_of(const rt::EnsembleSpec& spec) {
  std::string out;
  for (const rt::MemberSpec& m : spec.members) {
    if (!out.empty()) out += ", ";
    out += "{sim " + std::to_string(*m.sim.nodes.begin()) + ": [";
    for (std::size_t j = 0; j < m.analyses.size(); ++j) {
      if (j > 0) out += ",";
      out += std::to_string(*m.analyses[j].nodes.begin());
    }
    out += "]}";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Report

/// What one process does: set up and stop (run.py times process start to
/// ready), repeat the operation untimed inside, or drive the layers traced.
enum class Mode { kSetupOnly, kTimed, kTraced };

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  int threads = kThreads;  ///< threads the measured operation runs on
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  ///< one line per failed check
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> outputs;  ///< checked values

  void check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// ---------------------------------------------------------------------------
// Plan workloads

struct PlanOutcome {
  std::string placement;
  double objective = 0.0;  ///< F(P^{U,A,P}) of a 6-step probe, as wfens_plan
  double long_objective = 0.0;  ///< F of the placement run for kLongSteps
  double long_makespan = 0.0;

  bool same_plan(const PlanOutcome& o) const {
    return placement == o.placement && bits(objective) == bits(o.objective);
  }
  bool same_run(const PlanOutcome& o) const {
    return bits(long_objective) == bits(o.long_objective) &&
           bits(long_makespan) == bits(o.long_makespan);
  }
};

/// Everything a plan needs before the first timed call.
struct PlanSetup {
  const PlanWorkload& w;
  plat::PlatformSpec platform;
  sched::EnsembleShape shape;
  std::unique_ptr<sched::Scheduler> scheduler;
  sched::PlanOptions options;
  sched::Evaluator scorer;      ///< objective of the chosen placement
  rt::SimulatedExecutor runner;  ///< the chosen placement's long run

  PlanSetup(const PlanWorkload& workload, std::uint64_t seed)
      : w(workload),
        platform(wl::cori_like_platform()),
        shape(plan_demand(workload, seed)),
        scheduler(sched::make_scheduler(workload.scheduler)),
        scorer(platform),
        runner(platform, untraced_options()) {
    options.threads = kThreads;
    options.probe_steps = kProbeSteps;
    options.jitter_cv = workload.jitter_cv;
    options.probe_samples = workload.probe_samples;
  }

  sched::Schedule plan(int threads) const {
    sched::PlanOptions o = options;
    o.threads = threads;
    return scheduler->plan(shape, platform, {w.pool}, o);
  }

  PlanOutcome plan_outcome(const sched::Schedule& s) const {
    PlanOutcome out;
    out.placement = placement_of(s.spec);
    out.objective = scorer.score(s.spec, kProbeSteps).objective;
    return out;
  }

  /// What wfens_run + wfens_report do with the plan: replay the chosen
  /// placement for kLongSteps steps and assess the trace.
  void run(const rt::EnsembleSpec& planned, PlanOutcome* out) const {
    rt::EnsembleSpec spec = planned;
    spec.n_steps = kLongSteps;
    const rt::ExecutionResult result = runner.run(spec);
    const rt::Assessment a = rt::assess(spec, result);
    out->long_objective = a.objective(core::IndicatorKind::kUAP);
    out->long_makespan = a.ensemble_makespan_measured;
  }
};

/// The per-layer totals of one driven pipeline.
struct LayerTotals {
  double wall = 0, enumerate = 0, place = 0, parallel_wall = 0;
  double feasibility = 0, replay = 0, assess = 0;  // summed over workers
  std::uint64_t candidates = 0, place_calls = 0, feasibility_calls = 0,
                rejected = 0, replay_calls = 0, events = 0, assess_calls = 0,
                stage_records = 0;
  std::string winner;  ///< placement of the reduced winner
  std::vector<std::string> feasible;  ///< placements that passed validate()
};

struct alignas(64) WorkerTotals {
  double feasibility = 0, replay = 0, assess = 0;
  std::uint64_t feasibility_calls = 0, rejected = 0, replay_calls = 0,
                events = 0, assess_calls = 0, stage_records = 0;
};

/// Per-worker executors and pool for the driven pipeline.
struct Pipeline {
  const PlanSetup& s;
  rt::SimulatedOptions scenario = untraced_options();
  std::vector<rt::SimulatedExecutor> executors;
  exec::ThreadPool pool{kThreads};

  explicit Pipeline(const PlanSetup& setup) : s(setup) {
    scenario.jitter_cv = setup.w.jitter_cv;
    for (int i = 0; i < kThreads; ++i) {
      executors.emplace_back(setup.platform, scenario);
    }
  }

  /// enumerate → place → feasibility → replay → assess → pick_winner, in
  /// the scheduler's order, calling each layer's public function. With
  /// `timed` a steady-clock stamp brackets every call; without, the same
  /// code runs stamp-free, which prices the stamps. One probe draw per
  /// candidate: exhaustive's whole search, bai-search's first round.
  LayerTotals drive(bool timed) {
    const auto stamp = [timed] { return timed ? wall_s() : 0.0; };
    LayerTotals t;
    const double t0 = wall_s();

    double a = stamp();
    const std::vector<sched::Assignment> candidates =
        sched::enumerate_assignments(sched::slot_count(s.shape), s.w.pool);
    t.enumerate = stamp() - a;
    t.candidates = candidates.size();

    std::vector<rt::EnsembleSpec> specs;
    specs.reserve(candidates.size());
    for (const sched::Assignment& c : candidates) {
      a = stamp();
      specs.push_back(sched::place(s.shape, c));
      t.place += stamp() - a;
      specs.back().n_steps = kProbeSteps;
    }
    t.place_calls = specs.size();

    std::vector<sched::ScoredCandidate> scored(specs.size());
    std::vector<WorkerTotals> workers(kThreads);
    const double p0 = wall_s();
    pool.for_each_index(specs.size(), [&](std::size_t i, int worker) {
      WorkerTotals& wt = workers[static_cast<std::size_t>(worker)];
      const rt::SimulatedExecutor& ex =
          executors[static_cast<std::size_t>(worker)];
      double b = stamp();
      bool feasible = true;
      try {
        specs[i].validate(ex.platform());
      } catch (const SpecError&) {
        feasible = false;
      }
      wt.feasibility += stamp() - b;
      ++wt.feasibility_calls;
      if (!feasible) {
        ++wt.rejected;
        return;
      }
      b = stamp();
      const rt::ExecutionResult result =
          ex.run_seeded(specs[i], Fnv1a::mix(scenario.seed, i));
      wt.replay += stamp() - b;
      ++wt.replay_calls;
      wt.events += result.events_processed;
      b = stamp();
      const rt::Assessment assessed = rt::assess(specs[i], result);
      wt.assess += stamp() - b;
      ++wt.assess_calls;
      wt.stage_records += result.trace.size();
      scored[i] = {true, assessed.objective(core::IndicatorKind::kUAP)};
    });
    t.parallel_wall = wall_s() - p0;
    for (const WorkerTotals& wt : workers) {
      t.feasibility += wt.feasibility;
      t.replay += wt.replay;
      t.assess += wt.assess;
      t.feasibility_calls += wt.feasibility_calls;
      t.rejected += wt.rejected;
      t.replay_calls += wt.replay_calls;
      t.events += wt.events;
      t.assess_calls += wt.assess_calls;
      t.stage_records += wt.stage_records;
    }

    const std::optional<std::size_t> winner =
        sched::pick_winner(scored, candidates);
    if (winner) {
      t.winner = placement_of(sched::place(s.shape, candidates[*winner]));
    }
    t.wall = wall_s() - t0;
    if (!timed) return t;
    // Outside the timed section: what the reconciliation compares against.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (scored[i].feasible) t.feasible.push_back(placement_of(specs[i]));
    }
    return t;
  }

  /// The score layer as the planner calls it first: one batch over every
  /// candidate (exhaustive's only batch; bai-search's round 0). Returns
  /// {wall, cpu, fresh replays}.
  struct ScoreCall {
    double wall, cpu;
    std::size_t evaluations;
  };
  ScoreCall score() const {
    const std::vector<sched::Assignment> candidates =
        sched::enumerate_assignments(sched::slot_count(s.shape), s.w.pool);
    sched::BatchEvaluator evaluator(s.platform, scenario, kThreads);
    std::vector<sched::BatchEvaluator::ArmSample> round0;
    if (s.w.jitter_cv > 0.0) {
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        round0.push_back({i, 0});
      }
    }
    const double w0 = wall_s();
    const double c0 = cpu_s();
    if (s.w.jitter_cv > 0.0) {
      evaluator.score_arm_samples(s.shape, candidates, round0, kProbeSteps);
    } else {
      evaluator.score_assignments(s.shape, candidates, kProbeSteps);
    }
    return {wall_s() - w0, cpu_s() - c0, evaluator.evaluations()};
  }
};

/// Check one plan's outcome against the first plan of its demand and, for
/// the default seed's own demand, against the stored reference.
bool plan_ok(const PlanOutcome& o, const std::optional<PlanOutcome>& first,
             bool reference, Report& r) {
  bool ok = true;
  if (first && !o.same_plan(*first)) {
    r.check(false, "plan differs from its demand's first plan: " +
                       o.placement);
    ok = false;
  }
  if (first && !o.same_run(*first)) {
    r.check(false, "long run of the plan differs from the first");
    ok = false;
  }
  if (reference) {
    char f[32];
    std::snprintf(f, sizeof f, "%.9e", o.objective);
    if (o.placement != kRefPlacement || std::string(f) != kRefObjective) {
      r.check(false, "plan differs from the reference: " + o.placement +
                         " F=" + f);
      ok = false;
    }
  }
  return ok;
}

void run_plan(const PlanWorkload& w, std::uint64_t seed, double seconds,
              Mode mode, Report& r) {
  // Demand 0 is the seed's own (the paper demand at the default seed); the
  // others are drawn from it. The traced run plans demand 0 only.
  std::deque<PlanSetup> setups;
  const std::size_t demands = mode == Mode::kTraced ? 1 : kDemands;
  for (std::size_t k = 0; k < demands; ++k) {
    setups.emplace_back(w, k == 0 ? seed : Fnv1a::mix(seed, k));
  }
  if (mode == Mode::kSetupOnly) return;
  const PlanSetup& s = setups.front();

  // One checked plan of demand k: plan, score the chosen placement, run it
  // long, and compare with the demand's first plan and the reference.
  // Timings are optional.
  std::vector<std::optional<PlanOutcome>> firsts(demands);
  struct Timing {
    double plan_wall = 0, plan_cpu = 0, run_wall = 0;
  };
  const auto checked_plan = [&](std::size_t k, int threads, Timing* t) {
    ++r.attempted;
    try {
      const PlanSetup& d = setups[k];
      const double w0 = wall_s();
      const double c0 = cpu_s();
      sched::Schedule schedule = d.plan(threads);
      const double w1 = wall_s();
      const double c1 = cpu_s();
      PlanOutcome o = d.plan_outcome(schedule);
      const double r0 = wall_s();
      d.run(schedule.spec, &o);
      if (t) *t = {w1 - w0, c1 - c0, wall_s() - r0};
      if (!plan_ok(o, firsts[k], k == 0 && seed == kDefaultSeed, r)) {
        ++r.failed;
      }
      if (!firsts[k]) firsts[k] = o;
      return std::optional<sched::Schedule>(std::move(schedule));
    } catch (const std::exception& e) {
      ++r.failed;
      r.check(false, std::string("plan threw: ") + e.what());
      return std::optional<sched::Schedule>();
    }
  };

  // The first plan is the warm-up (lazy set-up, allocator growth) and the
  // reference every later plan of demand 0 is compared with; it is not
  // timed.
  if (!checked_plan(0, kThreads, nullptr)) return;

  if (mode == Mode::kTimed) {
    // Whole cycles over the demands, so each weighs the same in the
    // medians; the last one ends within half a cycle of `seconds`.
    std::vector<double> plan_wall, plan_cpu, run_wall;
    const double start = wall_s();
    double cycle = 0.0;
    while (plan_wall.empty() || wall_s() - start + cycle / 2 <= seconds) {
      const double c0 = wall_s();
      for (std::size_t k = 0; k < demands; ++k) {
        Timing t;
        if (!checked_plan(k, kThreads, &t)) return;
        plan_wall.push_back(t.plan_wall);
        plan_cpu.push_back(t.plan_cpu);
        run_wall.push_back(t.run_wall);
      }
      cycle = wall_s() - c0;
    }
    // Any thread count plans bit-identically.
    const std::optional<sched::Schedule> schedule =
        checked_plan(0, 1, nullptr);
    if (!schedule) return;
    const PlanOutcome& first = *firsts.front();
    r.add("plan_s", median(plan_wall), "s");
    r.add("plan_cpu_s", median(plan_cpu), "s");
    r.add("run_s", median(run_wall), "s");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    r.outputs.push_back({"plans_timed", std::to_string(plan_wall.size())});
    r.outputs.push_back({"samples", std::to_string(schedule->samples)});
    r.outputs.push_back(
        {"fresh_replays", std::to_string(schedule->evaluations)});
    r.outputs.push_back({"placement", first.placement});
    r.outputs.push_back({"objective_bits", bits_hex(first.objective)});
    r.outputs.push_back({"long_makespan_bits", bits_hex(first.long_makespan)});
    return;
  }

  // Traced run.
  Pipeline pipeline(s);
  std::vector<double> plan_wall, untimed_wall;
  std::vector<LayerTotals> traced;
  std::vector<Pipeline::ScoreCall> scores;
  std::optional<sched::Schedule> schedule;
  const double deadline = wall_s() + seconds;
  while (traced.size() < 2 || wall_s() < deadline) {
    Timing timing;
    schedule = checked_plan(0, kThreads, &timing);
    if (!schedule) return;
    plan_wall.push_back(timing.plan_wall);
    untimed_wall.push_back(pipeline.drive(false).wall);
    traced.push_back(pipeline.drive(true));
    scores.push_back(pipeline.score());
  }

  // The planner's own sample count, witnessed by the score layer's
  // observability counters in one observed plan.
  double witnessed_samples = 0.0;
  {
    obs::Recorder recorder;
    obs::Session session(recorder);
    s.plan(kThreads);
    for (const obs::CounterValue& c : recorder.counters().snapshot()) {
      if (c.name == "sched.candidates") witnessed_samples = c.value;
    }
  }

  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const LayerTotals& t : traced) v.push_back(field(t));
    return median(v);
  };
  const LayerTotals& t = traced.front();
  for (const LayerTotals& u : traced) {
    r.check(u.candidates == t.candidates && u.replay_calls == t.replay_calls &&
                u.events == t.events && u.stage_records == t.stage_records &&
                u.winner == t.winner,
            "traced pipeline counts differ between iterations");
  }
  // Self times are derived within each iteration, whose measurements were
  // taken back to back, and then reduced to their median.
  std::vector<double> sw, sc, sb, score_selfs, search_selfs;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const Pipeline::ScoreCall& c = scores[i];
    sw.push_back(c.wall);
    sc.push_back(c.cpu);
    sb.push_back(c.cpu / c.wall);
    score_selfs.push_back(c.wall - traced[i].place - traced[i].parallel_wall);
    search_selfs.push_back(plan_wall[i] - traced[i].enumerate - c.wall);
  }
  const double plan = median(plan_wall);
  const double enumerate =
      med([](const LayerTotals& x) { return x.enumerate; });
  const double place = med([](const LayerTotals& x) { return x.place; });
  const double score = median(sw);
  const double score_self = median(score_selfs);
  const double search_self = median(search_selfs);
  const double replay = med([](const LayerTotals& x) { return x.replay; });
  const double assess = med([](const LayerTotals& x) { return x.assess; });
  const double traced_wall = med([](const LayerTotals& x) { return x.wall; });

  r.add("enumerate.busy_s", enumerate, "s");
  r.add("enumerate.candidates", static_cast<double>(t.candidates), "count");
  r.add("place.busy_s", place, "s");
  r.add("place.calls", static_cast<double>(t.place_calls), "count");
  r.add("feasibility.busy_s",
        med([](const LayerTotals& x) { return x.feasibility; }), "s");
  r.add("feasibility.calls", static_cast<double>(t.feasibility_calls), "count");
  r.add("feasibility.rejected", static_cast<double>(t.rejected), "count");
  r.add("feasibility.pass_ratio",
        ratio(static_cast<double>(t.feasibility_calls - t.rejected),
              static_cast<double>(t.feasibility_calls)),
        "ratio");
  r.add("replay.busy_s", replay, "s");
  r.add("replay.calls", static_cast<double>(t.replay_calls), "count");
  r.add("replay.events", static_cast<double>(t.events), "count");
  r.add("replay.ns_per_event",
        1e9 * ratio(replay, static_cast<double>(t.events)), "ns");
  r.add("assess.busy_s", assess, "s");
  r.add("assess.calls", static_cast<double>(t.assess_calls), "count");
  r.add("assess.us_per_call",
        1e6 * ratio(assess, static_cast<double>(t.assess_calls)), "us");
  r.add("assess.stage_records", static_cast<double>(t.stage_records), "count");
  r.add("score.busy_s", score, "s");
  r.add("score.cpu_s", median(sc), "s");
  r.add("score.cores_busy", median(sb), "cores");
  r.add("score.self_s", score_self, "s");
  r.add("search.self_s", search_self, "s");
  r.add("search.samples", static_cast<double>(schedule->samples), "count");
  r.add("search.fresh_replays", static_cast<double>(schedule->evaluations),
        "count");
  r.add("search.memo_hits", static_cast<double>(schedule->cache_hits), "count");
  r.add("search.fresh_ratio",
        ratio(static_cast<double>(schedule->evaluations),
              static_cast<double>(schedule->samples)),
        "ratio");
  r.add("traced.overhead_frac", (traced_wall - median(untimed_wall)) / plan,
        "ratio");

  // Reconciliation: the driven pipeline and the planner must agree.
  r.check(t.feasibility_calls == t.candidates,
          "feasibility.calls != enumerate.candidates");
  const std::string planned = placement_of(schedule->spec);
  if (w.jitter_cv == 0.0) {
    r.check(t.winner == planned, "traced pipeline's winner " + t.winner +
                                     " != plan()'s " + planned);
    r.check(t.replay_calls == schedule->evaluations,
            "replay.calls != Schedule::evaluations");
    r.check(t.replay_calls == schedule->samples,
            "feasible draws != Schedule::samples");
  } else {
    // One draw per arm does not decide an LUCB search under jitter: the
    // planner's winner need only be an arm the driven pipeline found
    // feasible.
    r.check(std::find(t.feasible.begin(), t.feasible.end(), planned) !=
                t.feasible.end(),
            "plan()'s winner " + planned +
                " is not a feasible arm of the traced pipeline");
    r.check(t.replay_calls == scores.front().evaluations,
            "replay.calls != round-0 evaluations");
    r.check(witnessed_samples == static_cast<double>(schedule->samples),
            "sched.candidates counter != Schedule::samples");
  }
  // The timed layers must fit inside the plan they were cut from.
  r.check(score_self > -0.2 * plan && search_self > -0.2 * plan,
          "timed layers exceed the plan's wall time");
  r.outputs.push_back({"traced_iterations", std::to_string(traced.size())});
  r.outputs.push_back({"traced_plan_s", json_number(plan)});
  r.outputs.push_back({"witnessed_samples", json_number(witnessed_samples)});
}

// ---------------------------------------------------------------------------
// replay-long

struct LongSetup {
  plat::PlatformSpec platform;
  std::vector<wl::NamedConfig> configs;
  std::vector<sched::EnsembleShape> demands;
  std::unique_ptr<sched::Scheduler> heuristic;
  rt::SimulatedExecutor executor;

  explicit LongSetup(std::uint64_t seed)
      : platform(wl::cori_like_platform()),
        configs(long_configs(seed)),
        heuristic(sched::make_scheduler("greedy-colocate")),
        executor(platform, untraced_options()) {
    for (const wl::NamedConfig& c : configs) {
      demands.push_back(sched::EnsembleShape::of(c.spec));
    }
  }
};

struct PassOutput {
  std::vector<double> objective, makespan;
  std::vector<std::string> planned;
  double replay = 0, assess = 0;
  std::uint64_t events = 0, stage_records = 0;
};

/// Plan each demand with the default closed-form heuristic (no replays),
/// then replay and assess each paper configuration as the paper placed it.
PassOutput long_plan(const LongSetup& s) {
  PassOutput p;
  for (std::size_t i = 0; i < s.configs.size(); ++i) {
    const sched::Schedule planned =
        s.heuristic->plan(s.demands[i], s.platform, {s.configs[i].nodes});
    p.planned.push_back(placement_of(planned.spec));
  }
  return p;
}

void long_run(const LongSetup& s, bool timed, PassOutput* p) {
  const auto stamp = [timed] { return timed ? wall_s() : 0.0; };
  for (const wl::NamedConfig& c : s.configs) {
    double a = stamp();
    const rt::ExecutionResult result = s.executor.run(c.spec);
    p->replay += stamp() - a;
    a = stamp();
    const rt::Assessment assessed = rt::assess(c.spec, result);
    p->assess += stamp() - a;
    p->events += result.events_processed;
    p->stage_records += result.trace.size();
    p->objective.push_back(assessed.objective(core::IndicatorKind::kUAP));
    p->makespan.push_back(assessed.ensemble_makespan_measured);
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (bits(a[i]) != bits(b[i])) return false;
  }
  return true;
}

void run_long(std::uint64_t seed, double seconds, Mode mode, Report& r) {
  const LongSetup s(seed);
  r.threads = 1;
  if (mode == Mode::kSetupOnly) return;
  const bool trace = mode == Mode::kTraced;

  std::optional<PassOutput> first;
  const auto check_pass = [&](const PassOutput& p) {
    bool ok = true;
    if (first) {
      ok = same_bits(p.objective, first->objective) &&
           same_bits(p.makespan, first->makespan) &&
           p.planned == first->planned &&
           p.events == first->events;
      r.check(ok, "replay-long pass differs from the run's first pass");
    } else if (seed == kDefaultSeed) {
      const std::size_t n = std::size(kLongRef);
      bool match = n == s.configs.size();
      for (std::size_t i = 0; match && i < n; ++i) {
        match = s.configs[i].name == kLongRef[i].name &&
                bits(p.objective[i]) == kLongRef[i].objective &&
                bits(p.makespan[i]) == kLongRef[i].makespan;
      }
      r.check(match, "replay-long differs from the stored reference");
      ok = match;
    }
    return ok;
  };
  const auto pass = [&](bool timed, double* plan_wall, double* plan_cpu,
                        double* run_wall) {
    ++r.attempted;
    try {
      double w0 = wall_s();
      const double c0 = cpu_s();
      PassOutput p = long_plan(s);
      if (plan_wall) *plan_wall = wall_s() - w0;
      if (plan_cpu) *plan_cpu = cpu_s() - c0;
      w0 = wall_s();
      long_run(s, timed, &p);
      if (run_wall) *run_wall = wall_s() - w0;
      if (!check_pass(p)) ++r.failed;
      if (!first) first = p;
      return std::optional<PassOutput>(std::move(p));
    } catch (const std::exception& e) {
      ++r.failed;
      r.check(false, std::string("replay-long pass threw: ") + e.what());
      return std::optional<PassOutput>();
    }
  };

  if (!pass(false, nullptr, nullptr, nullptr)) return;  // warm-up, untimed

  std::vector<double> plan_wall, plan_cpu, run_wall, traced_wall;
  std::vector<PassOutput> traced;
  const double deadline = wall_s() + seconds;
  while (run_wall.size() < 3 || wall_s() < deadline) {
    double pw = 0, pc = 0, rw = 0;
    if (!pass(false, &pw, &pc, &rw)) return;
    plan_wall.push_back(pw);
    plan_cpu.push_back(pc);
    run_wall.push_back(rw);
    if (trace) {
      double tw = 0;
      std::optional<PassOutput> p = pass(true, nullptr, nullptr, &tw);
      if (!p) return;
      traced_wall.push_back(tw);
      traced.push_back(std::move(*p));
    }
  }

  if (!trace) {
    r.add("plan_s", median(plan_wall), "s");
    r.add("plan_cpu_s", median(plan_cpu), "s");
    r.add("run_s", median(run_wall), "s");
    r.add("peak_rss_mib", peak_rss_mib(), "MiB");
    r.outputs.push_back({"passes_timed", std::to_string(run_wall.size())});
    if (seed == kDefaultSeed) {
      std::string refs;
      for (std::size_t i = 0; i < s.configs.size(); ++i) {
        refs += "{\"" + s.configs[i].name + "\", 0x" +
                bits_hex(first->objective[i]) + "ULL, 0x" +
                bits_hex(first->makespan[i]) + "ULL},";
      }
      r.outputs.push_back({"reference", refs});
    }
    return;
  }

  std::vector<double> replay, assess;
  for (const PassOutput& p : traced) {
    replay.push_back(p.replay);
    assess.push_back(p.assess);
  }
  const PassOutput& t = traced.front();
  const double n = static_cast<double>(s.configs.size());
  const double rb = median(replay);
  const double ab = median(assess);
  // No candidate is enumerated, placed, checked, scored or searched; the
  // heuristic plan counts as the search's own time.
  for (const char* name : {"enumerate.busy_s", "place.busy_s",
                           "feasibility.busy_s",
                           "score.busy_s", "score.cpu_s", "score.self_s"}) {
    r.add(name, 0.0, "s");
  }
  for (const char* name : {"enumerate.candidates", "place.calls",
                           "feasibility.calls",
                           "feasibility.rejected", "search.samples",
                           "search.fresh_replays", "search.memo_hits"}) {
    r.add(name, 0.0, "count");
  }
  r.add("feasibility.pass_ratio", 0.0, "ratio");
  r.add("score.cores_busy", 0.0, "cores");
  r.add("search.fresh_ratio", 0.0, "ratio");
  r.add("search.self_s", median(plan_wall), "s");
  r.add("replay.busy_s", rb, "s");
  r.add("replay.calls", n, "count");
  r.add("replay.events", static_cast<double>(t.events), "count");
  r.add("replay.ns_per_event", 1e9 * ratio(rb, static_cast<double>(t.events)),
        "ns");
  r.add("assess.busy_s", ab, "s");
  r.add("assess.calls", n, "count");
  r.add("assess.us_per_call", 1e6 * ab / n, "us");
  r.add("assess.stage_records", static_cast<double>(t.stage_records), "count");
  r.add("traced.overhead_frac",
        (median(traced_wall) - median(run_wall)) / median(run_wall), "ratio");
  r.outputs.push_back({"traced_iterations", std::to_string(traced.size())});
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: planbench --workload plan-det|plan-jitter|replay-long "
               "--seed N --seconds S --trace 0|1 [--setup-only 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      trace = value == "1";
    } else if (key == "--setup-only") {
      setup_only = value == "1";
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || seconds <= 0.0) return usage();

  const Mode mode = setup_only ? Mode::kSetupOnly
                   : trace    ? Mode::kTraced
                              : Mode::kTimed;
  Report r;
  try {
    if (workload == kPlanDet.name) {
      run_plan(kPlanDet, seed, seconds, mode, r);
    } else if (workload == kPlanJitter.name) {
      run_plan(kPlanJitter, seed, seconds, mode, r);
    } else if (workload == "replay-long") {
      run_long(seed, seconds, mode, r);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "planbench: %s\n", e.what());
    return 1;
  }
  if (setup_only) {
    // steady_clock is CLOCK_MONOTONIC, the clock run.py stamped the spawn on.
    std::printf("{\"ready_s\": %s}\n", json_number(wall_s()).c_str());
    return 0;
  }

#ifdef WFENS_LOCK_RANK
  const bool lock_rank = true;
#else
  const bool lock_rank = false;
#endif
  std::ostringstream out;
  out << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
      << ", \"trace\": " << (trace ? 1 : 0) << ", \"threads\": " << r.threads
      << ", \"build\": {\"compiler\": " << json_string("GCC " __VERSION__)
      << ", \"build_type\": " << json_string(PLANBENCH_BUILD_TYPE)
      << ", \"lock_rank\": " << (lock_rank ? "true" : "false")
      << ", \"calibration_s\": " << json_number(calibration_s()) << "}"
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"correct\": " << (r.problems.empty() ? "true" : "false")
      << ", \"problems\": [";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    out << (i ? ", " : "") << json_string(r.problems[i]);
  }
  out << "], \"outputs\": {";
  for (std::size_t i = 0; i < r.outputs.size(); ++i) {
    out << (i ? ", " : "") << json_string(r.outputs[i].first) << ": "
        << json_string(r.outputs[i].second);
  }
  out << "}, \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
        << json_number(m.value) << ", \"unit\": " << json_string(m.unit) << "}";
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stdout);
  return 0;
}
