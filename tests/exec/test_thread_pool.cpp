// Tests for the work-queue thread pool used by the placement search.
//
// These tests also run under ThreadSanitizer (tools/check_sanitize.sh
// thread), so they deliberately hammer the claim/check-out protocol.
#include "exec/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace wfe::exec {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    ASSERT_EQ(pool.threads(), threads);
    std::vector<int> hits(1000, 0);
    pool.for_each_index(hits.size(),
                        [&](std::size_t i, int) { ++hits[i]; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000)
        << "threads=" << threads;
    for (int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(4);
  int calls = 0;
  pool.for_each_index(0, [&](std::size_t, int) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleThreadRunsInlineInIndexOrder) {
  // threads == 1 is the sequential reference: strict index order, caller's
  // thread, worker id always 0.
  ThreadPool pool(1);
  std::vector<std::size_t> order;
  pool.for_each_index(16, [&](std::size_t i, int worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, WorkerIdsStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  pool.for_each_index(512, [&](std::size_t, int worker) {
    if (worker < 0 || worker >= 3) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(ThreadPool, PerWorkerSlotsNeverRace) {
  // One accumulator per worker id — the pattern BatchEvaluator relies on.
  // TSan verifies there is no sharing; the sum verifies nothing was lost.
  ThreadPool pool(4);
  std::vector<std::uint64_t> per_worker(4, 0);
  pool.for_each_index(10000, [&](std::size_t i, int worker) {
    per_worker[static_cast<std::size_t>(worker)] += i + 1;
  });
  const std::uint64_t total =
      std::accumulate(per_worker.begin(), per_worker.end(), std::uint64_t{0});
  EXPECT_EQ(total, 10000ull * 10001ull / 2);
}

TEST(ThreadPool, BackToBackBatchesDoNotBleedIntoEachOther) {
  // Regression for the stale-worker race: a worker finishing batch k late
  // must not claim indices of batch k+1 with batch k's function.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> sum{0};
    const int marker = round + 1;
    pool.for_each_index(17, [&](std::size_t, int) {
      sum.fetch_add(marker, std::memory_order_relaxed);
    });
    ASSERT_EQ(sum.load(), 17 * marker) << "round " << round;
  }
}

TEST(ThreadPool, ResultSlotsMakeReductionDeterministic) {
  // Tasks write to their own index; the sequential reduction over slots is
  // identical for every thread count.
  std::vector<double> reference;
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<double> slots(257, 0.0);
    pool.for_each_index(slots.size(), [&](std::size_t i, int) {
      slots[i] = static_cast<double>(i * i) * 0.5;
    });
    if (reference.empty()) {
      reference = slots;
    } else {
      EXPECT_EQ(slots, reference) << "threads=" << threads;
    }
  }
}

TEST(ThreadPool, FirstExceptionPropagatesAfterDrain) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.for_each_index(100,
                          [&](std::size_t i, int) {
                            if (i == 13) throw std::runtime_error("boom");
                            completed.fetch_add(1, std::memory_order_relaxed);
                          }),
      std::runtime_error);
  // The batch drains fully; only the throwing index is missing.
  EXPECT_EQ(completed.load(), 99);
  // The pool survives and runs the next batch normally.
  std::atomic<int> after{0};
  pool.for_each_index(10, [&](std::size_t, int) { ++after; });
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPool, RejectsNonPositiveThreadCounts) {
  EXPECT_THROW(ThreadPool(0), std::exception);
  EXPECT_THROW(ThreadPool(-2), std::exception);
}

TEST(ThreadPool, CallerParticipatesAsWorkerZero) {
  // Worker 0 is the calling thread by contract — every index claimed under
  // worker id 0 must execute on the caller's own thread, and ids claimed by
  // dedicated workers must not. Whether the caller WINS a ticket in any
  // one batch is a scheduling race (a worker can drain the whole batch
  // before the caller claims its first index — routinely so under TSan's
  // serialized scheduling), so batches repeat until it does.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  bool caller_ran_something = false;
  for (int round = 0; round < 500 && !caller_ran_something; ++round) {
    // On a single-core host consecutive batches see the SAME scheduling
    // pattern (whichever worker holds the timeslice drains all 256 trivial
    // indices before the caller claims one), so losing rounds correlate;
    // sleeping re-enters the scheduler and decorrelates the next attempt.
    if (round > 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    std::mutex mutex;
    std::vector<std::pair<int, std::thread::id>> seen;
    pool.for_each_index(256, [&](std::size_t, int worker) {
      const std::lock_guard<std::mutex> lock(mutex);
      seen.emplace_back(worker, std::this_thread::get_id());
    });
    ASSERT_EQ(seen.size(), 256u);
    for (const auto& [worker, tid] : seen) {
      if (worker == 0) {
        EXPECT_EQ(tid, caller);
        caller_ran_something = true;
      } else {
        EXPECT_NE(tid, caller);
      }
    }
  }
  // The caller drains the queue alongside the crew: across the batches it
  // must have claimed at least one index.
  EXPECT_TRUE(caller_ran_something);
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoThreads) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  pool.for_each_index(32, [&](std::size_t, int worker) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, SingleIndexBatchRunsInlineOnAnyCrew) {
  // A one-index batch never wakes the crew: it runs on the caller's own
  // thread as worker 0, and its exception reaches the caller unchanged.
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (int round = 0; round < 20; ++round) {
    int calls = 0;
    pool.for_each_index(1, [&](std::size_t i, int worker) {
      EXPECT_EQ(i, 0u);
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
    });
    EXPECT_EQ(calls, 1);
  }
  try {
    pool.for_each_index(1, [&](std::size_t, int) {
      throw std::runtime_error("single probe failed");
    });
    FAIL() << "expected the task's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "single probe failed");
  }
  // The crew is untouched and still runs a wide batch.
  std::atomic<int> after{0};
  pool.for_each_index(64, [&](std::size_t, int) { ++after; });
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPool, ExceptionTypeAndMessageSurviveRethrow) {
  ThreadPool pool(3);
  try {
    pool.for_each_index(50, [&](std::size_t i, int) {
      if (i == 7) throw std::runtime_error("probe replay failed");
    });
    FAIL() << "expected the task's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "probe replay failed");
  }
}

TEST(ThreadPool, SurvivesRepeatedThrowingBatches) {
  // Alternate failing and clean batches on one pool: the error slot must
  // reset between batches, and no worker may be lost to a stale exception.
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    EXPECT_THROW(pool.for_each_index(20,
                                     [&](std::size_t i, int) {
                                       if (i % 5 == 0) {
                                         throw std::runtime_error("x");
                                       }
                                     }),
                 std::runtime_error);
    std::atomic<int> clean{0};
    pool.for_each_index(20, [&](std::size_t, int) {
      clean.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(clean.load(), 20) << "round " << round;
  }
}

TEST(ThreadPool, ManySmallBatchesOnManyPools) {
  // Construction/destruction churn: pools must join their crews cleanly
  // even when batches are tiny relative to the thread count.
  for (int i = 0; i < 25; ++i) {
    ThreadPool pool(1 + i % 5);
    std::atomic<int> n{0};
    pool.for_each_index(3, [&](std::size_t, int) { ++n; });
    EXPECT_EQ(n.load(), 3);
  }
}

TEST(ThreadPool, DestructionWithoutAnyBatchIsClean) {
  // A pool that never ran work must still shut its idle workers down.
  ThreadPool pool(6);
  SUCCEED();
}

}  // namespace
}  // namespace wfe::exec
