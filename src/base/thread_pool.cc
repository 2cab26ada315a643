#include "base/thread_pool.h"

#include <algorithm>
#include <system_error>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "obs/metrics.h"

namespace rpqi {

namespace {

/// Counts worker threads the pool failed to spawn; each failure degrades the
/// pool to fewer workers instead of leaking an exception into its owner.
const obs::Counter& SpawnFailures() {
  static const obs::Counter counter("thread_pool.spawn_failures");
  return counter;
}

/// Backlog of every WorkerPool in the process (they are not created
/// concurrently in practice: one per transport Serve call).
const obs::Gauge& QueueDepthGauge() {
  static const obs::Gauge gauge("worker_pool.queue_depth");
  return gauge;
}

/// Time each task sat queued before a worker picked it up.
const obs::Histogram& QueueWaitHistogram() {
  static const obs::Histogram histogram("worker_pool.queue_wait_us");
  return histogram;
}

}  // namespace

WorkerPool::WorkerPool(int num_threads, int max_queued)
    : max_queued_(static_cast<size_t>(std::max(0, max_queued))) {
  int count = std::max(1, num_threads);
  std::vector<std::thread> spawned;
  spawned.reserve(count);
  for (int i = 0; i < count; ++i) {
    if (RPQI_FAULT_FIRED("worker_pool.spawn")) {
      SpawnFailures().Increment();
      break;
    }
    try {
      spawned.emplace_back([this] { WorkerLoop(); });
    } catch (const std::system_error&) {
      SpawnFailures().Increment();
      break;
    }
  }
  // With zero spawned workers the pool degrades to synchronous execution:
  // TrySubmit runs tasks inline on the submitting thread (see below), so the
  // serving loop keeps answering — slower, but never wedged. The freshly
  // spawned workers take queue_mu_ themselves, so publish under the lock.
  MutexLock lock(&queue_mu_);
  threads_ = std::move(spawned);
}

WorkerPool::~WorkerPool() { Drain(); }

int WorkerPool::num_threads() const {
  MutexLock lock(&queue_mu_);
  return static_cast<int>(threads_.size());
}

bool WorkerPool::TrySubmit(std::function<void()> task) {
  bool inline_run = false;
  {
    MutexLock lock(&queue_mu_);
    if (draining_) return false;
    if (threads_.empty()) {
      inline_run = true;  // degraded pool: every worker spawn failed
    } else {
      if (queue_.size() >= max_queued_) return false;
      queue_.push_back({std::move(task), std::chrono::steady_clock::now()});
      QueueDepthGauge().Set(static_cast<int64_t>(queue_.size()));
    }
  }
  if (inline_run) {
    task();
    return true;
  }
  work_cv_.NotifyOne();
  return true;
}

void WorkerPool::Drain() {
  // Detach the thread handles under the lock, join them outside it (a join
  // can block arbitrarily long; holding queue_mu_ through it would deadlock
  // the workers it waits for). Clearing the member off-lock instead would
  // race concurrent num_threads()/TrySubmit readers.
  std::vector<std::thread> to_join;
  {
    MutexLock lock(&queue_mu_);
    if (draining_ && threads_.empty()) return;
    draining_ = true;
    to_join.swap(threads_);
  }
  work_cv_.NotifyAll();
  for (std::thread& thread : to_join) thread.join();
}

int64_t WorkerPool::QueuedNow() const {
  MutexLock lock(&queue_mu_);
  return static_cast<int64_t>(queue_.size());
}

void WorkerPool::WorkerLoop() {
  while (true) {
    QueuedTask queued;
    {
      MutexLock lock(&queue_mu_);
      while (!draining_ && queue_.empty()) work_cv_.Wait(&queue_mu_);
      if (queue_.empty()) return;  // draining and nothing left to run
      queued = std::move(queue_.front());
      queue_.pop_front();
      QueueDepthGauge().Set(static_cast<int64_t>(queue_.size()));
    }
    QueueWaitHistogram().RecordUs(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - queued.enqueued_at)
            .count());
    // Injected task-start stall: models a worker losing its timeslice (page
    // fault, noisy neighbor) between dequeue and execution.
    RPQI_FAULT_STALL("worker_pool.task_start");
    queued.task();
  }
}

}  // namespace rpqi
