#include "exec/thread_pool.hpp"

#include "support/error.hpp"

namespace wfe::exec {

ThreadPool::ThreadPool(int threads) : threads_(threads) {
  WFE_REQUIRE(threads >= 1, "a pool needs at least one worker");
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int w = 1; w < threads; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    Guard lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::drain(const std::function<void(std::size_t, int)>& fn,
                       std::size_t n, int worker) {
  for (;;) {
    const std::size_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i, worker);
    } catch (...) {
      Guard lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
  }
}

void ThreadPool::worker_loop(int worker) {
  std::uint64_t seen_epoch = 0;
  Lock lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return stop_ || epoch_ != seen_epoch; });
    if (stop_) return;
    seen_epoch = epoch_;
    const auto* fn = batch_fn_;
    const std::size_t n = batch_n_;
    lock.unlock();
    drain(*fn, n, worker);
    lock.lock();
    // Check out of the batch: the caller returns only after every worker
    // has done so, which is what makes starting the next batch safe (no
    // stale worker can claim one of its indices with this batch's fn).
    if (++checked_out_ == threads_ - 1) done_cv_.notify_one();
  }
}

void ThreadPool::for_each_index(
    std::size_t n, const std::function<void(std::size_t, int)>& fn) {
  if (n == 0) return;
  if (threads_ == 1 || n == 1) {
    // Inline fast path: sequential, in index order, no synchronization. A
    // one-index batch takes it on any crew: waking workers that have
    // nothing to claim would only add the notify / check-out round trip.
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  {
    Guard lock(mutex_);
    batch_fn_ = &fn;
    batch_n_ = n;
    next_index_.store(0, std::memory_order_relaxed);
    checked_out_ = 0;
    first_error_ = nullptr;
    ++epoch_;
  }
  work_cv_.notify_all();
  drain(fn, n, /*worker=*/0);
  Lock lock(mutex_);
  done_cv_.wait(lock, [&] { return checked_out_ == threads_ - 1; });
  batch_fn_ = nullptr;
  if (first_error_) {
    std::exception_ptr err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

}  // namespace wfe::exec
