#include "util/threadpool.h"

#include <atomic>
#include <limits>
#include <memory>
#include <stdexcept>

#include "util/fault_injection.h"

namespace joinboost {

namespace {
/// Which pool (if any) owns the current thread. Lets WaitIdle detect the
/// self-deadlocking wait-from-worker case and lets tests assert stealing.
thread_local const ThreadPool* tls_worker_pool = nullptr;
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

bool ThreadPool::InWorker() const { return tls_worker_pool == this; }

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  if (InWorker()) {
    // The calling worker counts as active, so the idle predicate could never
    // become true: fail fast instead of deadlocking.
    throw std::logic_error("ThreadPool::WaitIdle called from a pool worker");
  }
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (task_error_) {
    std::exception_ptr err = std::move(task_error_);
    task_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

ThreadPool::ParallelForStats ThreadPool::ParallelFor(
    size_t n, const std::function<void(size_t)>& fn) {
  ParallelForStats stats;
  if (n == 0) return stats;
  stats.items = n;
  if (n == 1 || workers_.size() == 1) {
    for (size_t i = 0; i < n; ++i) {
      util::fault::Maybe("worker-task");  // same chaos point as the pool path
      fn(i);  // exceptions propagate directly
    }
    return stats;
  }
  // Shared dispatch state. The caller participates in the loop, so nested
  // ParallelFor calls from inside pool workers cannot deadlock even when
  // every worker is busy: the caller alone can drain all items; helper
  // tasks are pure accelerators.
  struct Shared {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<size_t> helper_items{0};
    std::atomic<bool> failed{false};
    std::mutex err_mu;
    size_t err_index = std::numeric_limits<size_t>::max();
    std::exception_ptr error;
  };
  auto sh = std::make_shared<Shared>();
  // Helpers capture `fn` by reference; that reference stays valid because
  // the caller spins below until every claimed item has completed.
  auto drain = [sh, n, &fn](bool helper) {
    size_t i;
    while ((i = sh->next.fetch_add(1)) < n) {
      if (!sh->failed.load(std::memory_order_relaxed)) {
        try {
          // Chaos point: a worker task dying before its item runs exercises
          // first-error-wins propagation through the shared dispatch state.
          util::fault::Maybe("worker-task");
          fn(i);
          if (helper) sh->helper_items.fetch_add(1);
        } catch (...) {
          // Keep the smallest index that actually threw (later items may be
          // skipped once `failed` is observed, so which items ran at all is
          // interleaving-dependent).
          std::lock_guard<std::mutex> lk(sh->err_mu);
          if (i < sh->err_index) {
            sh->err_index = i;
            sh->error = std::current_exception();
          }
          sh->failed.store(true);
        }
      }
      sh->done.fetch_add(1);
    }
  };
  size_t helpers = std::min(n, workers_.size()) - 1;
  for (size_t t = 0; t < helpers; ++t) {
    Submit([drain] { drain(/*helper=*/true); });
  }
  drain(/*helper=*/false);
  while (sh->done.load() < n) std::this_thread::yield();
  stats.helper_items = sh->helper_items.load();
  // Take the error out of the shared state under its lock: a helper that
  // drops the last reference to `sh` then destroys an empty exception_ptr
  // and never releases the exception the caller is rethrowing.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lk(sh->err_mu);
    error = std::move(sh->error);
  }
  if (error) std::rethrow_exception(error);
  return stats;
}

void ThreadPool::WorkerLoop() {
  tls_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    try {
      task();
    } catch (...) {
      // A throwing Submit() task must not kill the worker; surface the first
      // failure to whoever waits next.
      std::unique_lock<std::mutex> lock(mu_);
      if (!task_error_) task_error_ = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace joinboost
