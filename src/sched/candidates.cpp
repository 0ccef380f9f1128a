#include "sched/candidates.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace wfe::sched {

std::size_t slot_count(const EnsembleShape& shape) {
  std::size_t slots = 0;
  for (const MemberShape& m : shape.members) slots += 1 + m.analyses.size();
  return slots;
}

Assignment canonical(const Assignment& assignment, int node_pool) {
  WFE_REQUIRE(node_pool >= 1, "need at least one node in the pool");
  // Flat relabel table indexed by node id; -1 = not seen yet.
  std::vector<int> relabel(static_cast<std::size_t>(node_pool), -1);
  int next = 0;
  Assignment out;
  out.reserve(assignment.size());
  for (int node : assignment) {
    WFE_REQUIRE(node >= 0 && node < node_pool, "node outside the pool");
    int& label = relabel[static_cast<std::size_t>(node)];
    if (label < 0) label = next++;
    out.push_back(label);
  }
  return out;
}

std::vector<Assignment> enumerate_assignments(std::size_t slots,
                                              int node_pool) {
  WFE_REQUIRE(slots >= 1, "need at least one slot");
  WFE_REQUIRE(node_pool >= 1, "need at least one node in the pool");
  // The canonical forms are exactly the restricted growth strings: a[0] is
  // 0 and each a[i] is at most one above the largest label before it (and
  // below node_pool). Walking them like an odometer, last slot fastest,
  // emits each class once, in lexicographic order, at O(output).
  std::vector<Assignment> out;
  Assignment a(slots, 0);
  std::vector<int> prefix_max(slots, 0);  // max(a[0..i])
  for (;;) {
    out.push_back(a);
    std::size_t pos = slots - 1;
    while (pos > 0 &&
           a[pos] >= std::min(node_pool - 1, prefix_max[pos - 1] + 1)) {
      --pos;
    }
    if (pos == 0) break;
    ++a[pos];
    prefix_max[pos] = std::max(prefix_max[pos - 1], a[pos]);
    for (std::size_t i = pos + 1; i < slots; ++i) {
      a[i] = 0;
      prefix_max[i] = prefix_max[pos];
    }
  }
  return out;
}

std::vector<Assignment> neighbor_assignments(const Assignment& from,
                                             int node_pool) {
  const Assignment self = canonical(from, node_pool);
  std::vector<Assignment> out;
  out.reserve(from.size() * static_cast<std::size_t>(node_pool - 1));
  Assignment probe = from;
  for (std::size_t slot = 0; slot < from.size(); ++slot) {
    const int original = probe[slot];
    for (int node = 0; node < node_pool; ++node) {
      if (node == original) continue;
      probe[slot] = node;
      Assignment canon = canonical(probe, node_pool);
      if (canon != self) out.push_back(std::move(canon));
    }
    probe[slot] = original;
  }
  return out;
}

std::optional<std::size_t> pick_winner(
    const std::vector<ScoredCandidate>& scored,
    const std::vector<Assignment>& candidates) {
  WFE_REQUIRE(scored.size() == candidates.size(),
              "one score per candidate required");
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < scored.size(); ++i) {
    if (!scored[i].feasible) continue;
    if (!best || scored[i].objective > scored[*best].objective ||
        (scored[i].objective == scored[*best].objective &&
         candidates[i] < candidates[*best])) {
      best = i;
    }
  }
  return best;
}

}  // namespace wfe::sched
