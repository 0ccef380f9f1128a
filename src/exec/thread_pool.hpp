// wfe::exec — a fixed-size work-queue thread pool for candidate fan-out.
//
// The placement-search layer (sched::BatchEvaluator) scores many independent
// discrete-event replays; this pool runs them on a fixed crew of workers.
// Determinism is preserved by construction, not by luck: the pool only
// distributes *indices* of a batch, every task writes its result into its
// own index's slot, and all reductions happen sequentially on the calling
// thread afterwards — so outcomes are bit-identical regardless of worker
// count or interleaving.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "support/lock_rank.hpp"

namespace wfe::exec {

class ThreadPool {
 public:
  /// A crew of `threads` workers (>= 1). The calling thread is worker 0 and
  /// participates in every batch; `threads - 1` dedicated threads are
  /// spawned. With threads == 1 no threads are spawned at all and every
  /// batch runs inline, sequentially, in index order. On any crew, a batch
  /// of one index also runs inline on the caller as worker 0.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int threads() const { return threads_; }

  /// Run `fn(index, worker)` for every index in [0, n), blocking until all
  /// calls have returned. Indices are claimed dynamically (an atomic
  /// ticket), so which worker runs which index is timing-dependent — but
  /// `worker` is always in [0, threads()), so per-worker state (e.g. one
  /// evaluator per worker) is race-free. If any call throws, the first
  /// exception (in completion order) is rethrown on the caller after the
  /// batch drains; the remaining indices still run. Batches of one index,
  /// and every batch of a one-thread pool, run inline on the caller as
  /// worker 0 (a one-thread pool's first exception ends its batch).
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t, int)>& fn);

 private:
  using Mutex = support::RankedMutex<support::kRankExecPool>;
  using Guard = support::RankGuard<Mutex>;
  using Lock = support::RankLock<Mutex>;

  void worker_loop(int worker);
  /// Claim-and-run loop shared by the caller and the workers.
  void drain(const std::function<void(std::size_t, int)>& fn, std::size_t n,
             int worker);

  const int threads_;
  std::vector<std::thread> workers_;

  Mutex mutex_;
  support::RankedCv work_cv_;         // workers wait here for a batch
  support::RankedCv done_cv_;         // the caller waits here for check-out
  bool stop_ = false;
  std::uint64_t epoch_ = 0;           // bumped once per batch
  const std::function<void(std::size_t, int)>* batch_fn_ = nullptr;
  std::size_t batch_n_ = 0;
  std::atomic<std::size_t> next_index_{0};
  int checked_out_ = 0;               // workers done with the current batch
  std::exception_ptr first_error_;
};

}  // namespace wfe::exec
