// Candidate enumeration: the restricted-growth-string generator against the
// odometer-and-dedup generator it replaced, kept here as the reference.
#include "sched/candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

namespace wfe::sched {
namespace {

/// The replaced generator: walk all node_pool^slots assignments in
/// lexicographic order, canonicalise each, keep first appearances.
std::vector<Assignment> odometer_reference(std::size_t slots, int node_pool) {
  std::vector<Assignment> out;
  std::set<Assignment> seen;
  Assignment assignment(slots, 0);
  for (;;) {
    Assignment canon = canonical(assignment, node_pool);
    if (seen.insert(canon).second) out.push_back(std::move(canon));
    std::size_t pos = slots;
    while (pos > 0) {
      if (++assignment[pos - 1] < node_pool) break;
      assignment[pos - 1] = 0;
      --pos;
    }
    if (pos == 0) break;
  }
  return out;
}

/// Sum over k = 1..node_pool of the Stirling numbers S(slots, k): the
/// number of set partitions of the slots into at most node_pool blocks.
std::uint64_t partitions_into_at_most(std::size_t slots, int node_pool) {
  // s[k] = S(n, k) for the current n, by S(n, k) = k S(n-1, k) + S(n-1, k-1).
  std::vector<std::uint64_t> s(static_cast<std::size_t>(node_pool) + 1, 0);
  s[0] = 1;  // S(0, 0)
  for (std::size_t n = 1; n <= slots; ++n) {
    for (std::size_t k = s.size() - 1; k >= 1; --k) {
      s[k] = k * s[k] + s[k - 1];
    }
    s[0] = 0;
  }
  std::uint64_t total = 0;
  for (std::size_t k = 1; k < s.size(); ++k) total += s[k];
  return total;
}

TEST(EnumerateAssignments, MatchesOdometerReferenceExactly) {
  for (std::size_t slots = 1; slots <= 9; ++slots) {
    const int max_pool = slots <= 8 ? 6 : 5;
    for (int pool = 1; pool <= max_pool; ++pool) {
      EXPECT_EQ(enumerate_assignments(slots, pool),
                odometer_reference(slots, pool))
          << "slots=" << slots << " pool=" << pool;
    }
  }
}

// Beyond the reference's reach: counts against the Stirling sums, every
// output canonical and strictly increasing. 12 slots stops at pool 4;
// pools 5 and 6 would hold 2.1M and 3.4M assignments in memory at once.
TEST(EnumerateAssignments, CountsMatchStirlingSumsUpToTwelveSlots) {
  for (std::size_t slots = 10; slots <= 12; ++slots) {
    const int max_pool = slots <= 11 ? 6 : 4;
    for (int pool = 1; pool <= max_pool; ++pool) {
      const std::vector<Assignment> all = enumerate_assignments(slots, pool);
      ASSERT_EQ(all.size(), partitions_into_at_most(slots, pool))
          << "slots=" << slots << " pool=" << pool;
      for (std::size_t i = 0; i < all.size(); ++i) {
        ASSERT_EQ(all[i].size(), slots);
        ASSERT_EQ(canonical(all[i], pool), all[i])
            << "slots=" << slots << " pool=" << pool << " i=" << i;
        if (i > 0) {
          ASSERT_LT(all[i - 1], all[i])
              << "slots=" << slots << " pool=" << pool << " i=" << i;
        }
      }
    }
  }
}

TEST(EnumerateAssignments, StirlingSumsMatchKnownValues) {
  // Bell numbers B(n) = partitions with no block limit (pool >= slots).
  EXPECT_EQ(partitions_into_at_most(5, 5), 52u);
  EXPECT_EQ(partitions_into_at_most(9, 9), 21147u);
  // The plan-det space: 3 x 2 demand (9 slots) on a 5-node pool.
  EXPECT_EQ(partitions_into_at_most(9, 5), 18002u);
  EXPECT_EQ(partitions_into_at_most(4, 1), 1u);
}

}  // namespace
}  // namespace wfe::sched
