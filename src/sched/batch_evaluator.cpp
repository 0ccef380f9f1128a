#include "sched/batch_evaluator.hpp"

#include <unordered_map>
#include <utility>

#include "obs/recorder.hpp"
#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/str.hpp"

namespace wfe::sched {

namespace {

void add_cost(Fnv1a& h, const md::MdCostParams& c) {
  h.add(c.instr_per_atom_step);
  h.add(c.base_ipc);
  h.add(c.llc_refs_per_instr);
  h.add(c.base_miss_ratio);
  h.add(c.bytes_per_atom);
  h.add(c.parallel_fraction);
  h.add(c.cache_sensitivity);
}

void add_cost(Fnv1a& h, const ana::AnalysisCostParams& c) {
  h.add(c.instr_per_element_sweep);
  h.add(c.power_iterations);
  h.add(c.subsample_stride);
  h.add(c.base_ipc);
  h.add(c.llc_refs_per_instr);
  h.add(c.base_miss_ratio);
  h.add(c.fixed_working_set_bytes);
  h.add(c.max_cache_footprint_bytes);
  h.add(c.parallel_fraction);
  h.add(c.cache_sensitivity);
}

/// Memo key: (canonical placement, probe steps, platform fingerprint) plus
/// a digest of the demand itself (core counts, workload scale, cost-model
/// constants) so one evaluator can serve different shapes safely. The
/// spec's name and n_steps are deliberately excluded — probes override the
/// step count, and names only label placements. Node ids are relabeled in
/// first-appearance order: on the modelled homogeneous pool, placements
/// differing only by node naming replay identically.
std::uint64_t memo_key(const rt::EnsembleSpec& spec,
                       std::uint64_t probe_steps,
                       std::uint64_t platform_fp,
                       std::uint64_t scenario_fp) {
  Fnv1a h;
  h.add(platform_fp);
  h.add(scenario_fp);
  h.add(probe_steps);
  std::unordered_map<int, int> relabel;
  const auto canon_node = [&](int node) {
    const auto [it, _] =
        relabel.emplace(node, static_cast<int>(relabel.size()));
    return it->second;
  };
  h.add(spec.members.size());
  for (const rt::MemberSpec& m : spec.members) {
    h.add(m.buffer_capacity);
    h.add(m.sim.cores);
    h.add(m.sim.natoms);
    h.add(m.sim.stride);
    add_cost(h, m.sim.cost);
    h.add(m.sim.nodes.size());
    for (int node : m.sim.nodes) h.add(canon_node(node));
    h.add(m.analyses.size());
    for (const rt::AnalysisSpec& a : m.analyses) {
      h.add(a.cores);
      h.add(std::string_view(a.kernel));
      add_cost(h, a.cost);
      h.add(a.nodes.size());
      for (int node : a.nodes) h.add(canon_node(node));
    }
  }
  return h.digest();
}

}  // namespace

BatchEvaluator::BatchEvaluator(plat::PlatformSpec platform, int threads)
    : BatchEvaluator(std::move(platform), rt::SimulatedOptions{}, threads) {}

BatchEvaluator::BatchEvaluator(plat::PlatformSpec platform,
                               rt::SimulatedOptions scenario, int threads)
    : pool_(threads) {
  platform.validate();
  platform_fp_ = platform.fingerprint();
  scenario_fp_ = scenario_fingerprint(scenario);
  evaluators_.reserve(static_cast<std::size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    evaluators_.emplace_back(platform, scenario);
  }
}

std::vector<BatchScore> BatchEvaluator::score_keyed(
    const std::vector<std::uint64_t>& keys,
    const std::vector<const rt::EnsembleSpec*>& specs,
    std::uint64_t probe_steps, const std::vector<std::uint64_t>* seeds) {
  const std::size_t n = keys.size();
  std::vector<BatchScore> out(n);
  const bool traced = obs::enabled();
  const double b0 = traced ? obs::now_s() : 0.0;
  const std::size_t hits_before = cache_hits_;
  const std::size_t shared_before = shared_hits_;

  // Sequential phase 1: resolve cache hits and within-batch duplicates;
  // collect the unique misses to simulate.
  std::vector<std::size_t> miss;       // batch indices to simulate
  std::vector<std::size_t> dup_of(n);  // same-batch duplicate -> first index
  std::unordered_map<std::uint64_t, std::size_t> inflight;
  CachedEval shared_entry;
  for (std::size_t i = 0; i < n; ++i) {
    dup_of[i] = i;
    if (const auto it = cache_.find(keys[i]); it != cache_.end()) {
      out[i] = it->second;
      out[i].cached = true;
      ++cache_hits_;
    } else if (shared_ && shared_->lookup(keys[i], &shared_entry)) {
      // Second tier: scored by another evaluator (possibly another
      // process, via EvalCache::load). Promote into the local memo so
      // later batches skip the lock.
      out[i] = {shared_entry.feasible, true, shared_entry.eval};
      cache_.emplace(keys[i], BatchScore{shared_entry.feasible, false,
                                         shared_entry.eval});
      ++cache_hits_;
      ++shared_hits_;
    } else if (const auto in = inflight.find(keys[i]);
               in != inflight.end()) {
      dup_of[i] = in->second;
      ++cache_hits_;
    } else {
      inflight.emplace(keys[i], i);
      miss.push_back(i);
    }
  }

  // Parallel phase: each worker replays with its own evaluator and writes
  // only its claimed indices' slots. Infeasible specs are marked, not run.
  pool_.for_each_index(miss.size(), [&](std::size_t j, int worker) {
    const std::size_t i = miss[j];
    BatchScore& score = out[i];
    const double w0 = traced ? obs::now_s() : 0.0;
    score.feasible = true;
    try {
      specs[i]->validate(evaluators_[static_cast<std::size_t>(worker)]
                             .platform());
    } catch (const SpecError&) {
      score.feasible = false;  // infeasible placements are marked, not run
    }
    if (score.feasible) {
      Evaluator& ev = evaluators_[static_cast<std::size_t>(worker)];
      score.eval = seeds == nullptr
                       ? ev.score(*specs[i], probe_steps)
                       : ev.score_seeded(*specs[i], probe_steps, (*seeds)[i]);
    }
    if (traced) {
      const double w1 = obs::now_s();
      obs::span(strprintf("sched/w%d", worker), "evaluate", w0, w1);
      obs::add_counter(strprintf("sched.w%d.busy_s", worker), w1, w1 - w0);
    }
  });

  // Sequential phase 2: memoize fresh scores, then resolve duplicates.
  std::size_t infeasible = 0;  // misses rejected by validation, not replayed
  for (const std::size_t i : miss) {
    if (!out[i].feasible) ++infeasible;
    cache_.emplace(keys[i], out[i]);
    if (shared_) shared_->insert(keys[i], {out[i].feasible, out[i].eval});
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (dup_of[i] != i) {
      out[i] = out[dup_of[i]];
      out[i].cached = true;
    }
  }
  if (traced) {
    const double b1 = obs::now_s();
    obs::span("scheduler", "batch", b0, b1);
    obs::add_counter("sched.candidates", b1, static_cast<double>(n));
    obs::add_counter("sched.evaluations", b1,
                     static_cast<double>(miss.size() - infeasible));
    obs::add_counter("sched.infeasible", b1,
                     static_cast<double>(infeasible));
    obs::add_counter("sched.memo_hits", b1,
                     static_cast<double>(cache_hits_ - hits_before));
    obs::add_counter("sched.shared_hits", b1,
                     static_cast<double>(shared_hits_ - shared_before));
  }
  return out;
}

std::vector<BatchScore> BatchEvaluator::score_assignments(
    const EnsembleShape& shape, const std::vector<Assignment>& assignments,
    std::uint64_t probe_steps) {
  std::vector<rt::EnsembleSpec> specs;
  specs.reserve(assignments.size());
  std::vector<std::uint64_t> keys;
  keys.reserve(assignments.size());
  std::vector<const rt::EnsembleSpec*> spec_ptrs;
  spec_ptrs.reserve(assignments.size());
  for (const Assignment& a : assignments) {
    specs.push_back(place(shape, a));
    keys.push_back(
        memo_key(specs.back(), probe_steps, platform_fp_, scenario_fp_));
  }
  for (const rt::EnsembleSpec& s : specs) spec_ptrs.push_back(&s);
  return score_keyed(keys, spec_ptrs, probe_steps);
}

std::vector<BatchScore> BatchEvaluator::score_specs(
    const std::vector<rt::EnsembleSpec>& specs, std::uint64_t probe_steps) {
  std::vector<std::uint64_t> keys;
  keys.reserve(specs.size());
  std::vector<const rt::EnsembleSpec*> spec_ptrs;
  spec_ptrs.reserve(specs.size());
  for (const rt::EnsembleSpec& s : specs) {
    keys.push_back(memo_key(s, probe_steps, platform_fp_, scenario_fp_));
    spec_ptrs.push_back(&s);
  }
  return score_keyed(keys, spec_ptrs, probe_steps);
}

std::vector<BatchScore> BatchEvaluator::score_arm_samples(
    const EnsembleShape& shape, const std::vector<Assignment>& arms,
    const std::vector<ArmSample>& samples, std::uint64_t probe_steps) {
  // Build each referenced arm's spec and base digest once, in one slot per
  // distinct arm (first-appearance order): a 1-2 sample search round costs
  // what it draws, not what the whole arm set would. The base digest is
  // the ordinary memo key (platform + scenario + probe depth + canonical
  // placement + demand); sample seeds and sample keys both derive from
  // it, which is what makes a sample a value: the same (candidate, index)
  // names the same replay everywhere.
  std::unordered_map<std::size_t, std::size_t> slot_of;
  std::vector<std::size_t> sample_slot;
  sample_slot.reserve(samples.size());
  std::vector<rt::EnsembleSpec> specs;
  std::vector<std::uint64_t> base_keys;
  for (const ArmSample& s : samples) {
    WFE_REQUIRE(s.arm < arms.size(), "sample references an unknown arm");
    const auto [it, fresh] = slot_of.emplace(s.arm, specs.size());
    if (fresh) {
      specs.push_back(place(shape, arms[s.arm]));
      base_keys.push_back(
          memo_key(specs.back(), probe_steps, platform_fp_, scenario_fp_));
    }
    sample_slot.push_back(it->second);
  }

  std::vector<std::uint64_t> keys;
  keys.reserve(samples.size());
  std::vector<std::uint64_t> seeds;
  seeds.reserve(samples.size());
  std::vector<const rt::EnsembleSpec*> spec_ptrs;
  spec_ptrs.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::uint64_t base = base_keys[sample_slot[i]];
    const std::uint64_t seed = Fnv1a::mix(base, samples[i].index);
    seeds.push_back(seed);
    keys.push_back(Fnv1a::mix(base, seed));
    spec_ptrs.push_back(&specs[sample_slot[i]]);
  }
  return score_keyed(keys, spec_ptrs, probe_steps, &seeds);
}

std::vector<BatchScore> BatchEvaluator::score_assignments_mean(
    const EnsembleShape& shape, const std::vector<Assignment>& assignments,
    std::uint64_t probe_steps, std::uint64_t samples) {
  WFE_REQUIRE(samples >= 1, "need at least one sample per assignment");
  std::vector<ArmSample> requests;
  requests.reserve(assignments.size() * samples);
  for (std::size_t a = 0; a < assignments.size(); ++a) {
    for (std::uint64_t k = 0; k < samples; ++k) requests.push_back({a, k});
  }
  const std::vector<BatchScore> draws =
      score_arm_samples(shape, assignments, requests, probe_steps);

  // Average each assignment's draws in index order (fixed fp summation
  // order keeps the means bit-stable). Feasibility and node count are
  // placement properties — every draw agrees — so they come from draw 0.
  std::vector<BatchScore> out(assignments.size());
  const double inv = 1.0 / static_cast<double>(samples);
  for (std::size_t a = 0; a < assignments.size(); ++a) {
    const std::size_t base = a * samples;
    BatchScore mean = draws[base];
    for (std::uint64_t k = 1; k < samples; ++k) {
      const BatchScore& d = draws[base + k];
      mean.eval.objective += d.eval.objective;
      mean.eval.ensemble_makespan += d.eval.ensemble_makespan;
      mean.eval.min_member_efficiency += d.eval.min_member_efficiency;
      mean.cached = mean.cached && d.cached;
    }
    if (mean.feasible && samples > 1) {
      mean.eval.objective *= inv;
      mean.eval.ensemble_makespan *= inv;
      mean.eval.min_member_efficiency *= inv;
    }
    out[a] = mean;
  }
  return out;
}

std::size_t BatchEvaluator::evaluations() const {
  std::size_t total = 0;
  for (const Evaluator& e : evaluators_) total += e.evaluations();
  return total;
}

std::uint64_t BatchEvaluator::events_processed() const {
  std::uint64_t total = 0;
  for (const Evaluator& e : evaluators_) total += e.events_processed();
  return total;
}

}  // namespace wfe::sched
