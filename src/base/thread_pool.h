#ifndef RPQI_BASE_THREAD_POOL_H_
#define RPQI_BASE_THREAD_POOL_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"

namespace rpqi {

/// A long-lived worker pool with a *bounded* task queue — the execution
/// substrate of `rpqi serve` (src/net drives src/service on it). Tasks are
/// independent closures submitted over the pool's lifetime; the queue bound
/// makes admission control explicit: TrySubmit never blocks and returns false
/// when the backlog is full, so the caller can turn overload into a
/// structured rejection instead of unbounded memory growth.
///
/// `max_queued` counts tasks accepted but not yet picked up by a worker;
/// tasks being executed do not count against it. Drain() (also run by the
/// destructor) stops admission, lets the workers finish every accepted task,
/// and joins them — the graceful-drain semantics of `rpqi serve` on EOF.
///
/// Spawning is best-effort: failures (thread exhaustion, or the
/// `worker_pool.spawn` fault site) degrade the pool to fewer workers, counted
/// by `thread_pool.spawn_failures`. If *every* spawn failed, TrySubmit
/// degrades to running accepted tasks inline on the submitting thread, so the
/// serving loop stays live instead of wedging.
///
/// Observability: the `worker_pool.queue_depth` gauge tracks the backlog on
/// every enqueue/dequeue, and `worker_pool.queue_wait_us` records how long
/// each task sat queued before a worker picked it up — under saturation these
/// two show whether latency accumulates in the queue or in execution.
///
/// Every mutable field — including the worker thread handles, which Drain
/// detaches under the lock before joining them outside it — is guarded by
/// `queue_mu_`.
class WorkerPool {
 public:
  WorkerPool(int num_threads, int max_queued);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Workers currently attached (0 after Drain, or when every spawn failed).
  int num_threads() const RPQI_EXCLUDES(queue_mu_);

  /// Enqueues `task` unless the pool is draining or the queue is at capacity.
  /// Tasks must not throw; they run exactly once, on an arbitrary worker.
  bool TrySubmit(std::function<void()> task) RPQI_EXCLUDES(queue_mu_);

  /// Closes admission, waits for every accepted task to finish, and joins the
  /// workers. Idempotent; after Drain(), TrySubmit always returns false.
  void Drain() RPQI_EXCLUDES(queue_mu_);

  /// Tasks currently accepted but not yet started (for stats endpoints).
  int64_t QueuedNow() const RPQI_EXCLUDES(queue_mu_);

 private:
  /// A queued closure plus its enqueue timestamp, for the queue-wait
  /// histogram.
  struct QueuedTask {
    std::function<void()> task;
    std::chrono::steady_clock::time_point enqueued_at;
  };

  void WorkerLoop() RPQI_EXCLUDES(queue_mu_);

  mutable Mutex queue_mu_;
  CondVar work_cv_;
  std::deque<QueuedTask> queue_ RPQI_GUARDED_BY(queue_mu_);
  /// Drain swaps this vector out under queue_mu_, then joins the detached
  /// handles lock-free; it used to clear() the member off-lock, racing
  /// num_threads()/TrySubmit readers (pinned by
  /// WorkerPoolTest.DrainRacingSubmittersAndStatsReaders).
  std::vector<std::thread> threads_ RPQI_GUARDED_BY(queue_mu_);
  const size_t max_queued_;
  bool draining_ RPQI_GUARDED_BY(queue_mu_) = false;
};

}  // namespace rpqi

#endif  // RPQI_BASE_THREAD_POOL_H_
