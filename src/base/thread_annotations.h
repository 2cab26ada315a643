#ifndef RPQI_BASE_THREAD_ANNOTATIONS_H_
#define RPQI_BASE_THREAD_ANNOTATIONS_H_

/// Thread-safety capability annotations (ABSL style), checked by Clang's
/// -Wthread-safety analysis. Under GCC (and any compiler without the
/// attribute) every macro expands to nothing, so annotated code compiles
/// identically everywhere; the `thread-safety` CI job builds with Clang and
/// -Werror=thread-safety so a guarded field touched off-lock, a conditionally
/// held lock, or a double-acquire fails the build instead of waiting for TSan
/// to stumble over it.
///
/// Usage pattern (see base/mutex.h for the annotated Mutex/MutexLock/CondVar):
///
///   class Accountant {
///     void Add(int64_t delta) RPQI_EXCLUDES(mu_) {
///       MutexLock lock(&mu_);
///       total_ += delta;
///     }
///     Mutex mu_;
///     int64_t total_ RPQI_GUARDED_BY(mu_) = 0;
///   };
///
/// Escape hatch: RPQI_NO_THREAD_SAFETY_ANALYSIS disables the analysis for one
/// function. src/ has no use of it; a new one must carry a written waiver
/// `// lint: allow-no-tsa <why>` naming the protocol that substitutes for the
/// lock (enforced by tools/rpqi_lint.py, rule `lock-order`).
///
/// ----------------------------------------------------------------------------
/// The declared lock hierarchy. A thread holding a lock may only acquire locks
/// strictly *below* it in this list (outermost first). tools/rpqi_lint.py's
/// `lock-order` rule parses the block between the BEGIN/END markers — one
/// mutex name per line, outermost first — and rejects any function whose
/// nested MutexLock/lock_guard scopes (or RPQI_REQUIRES annotations) acquire
/// against the order; waiver: `// lint: allow-lock-order <why>`. The rule is
/// bidirectional: every name here must be a Mutex declared under src/, and
/// every Mutex declared under src/ must be ranked here.
///
/// The obs metrics registry is deliberately the innermost lock: every layer
/// bumps counters, so `registry_mu` must be acquirable while holding anything.
///
// RPQI_LOCK_ORDER_BEGIN
//   queue_mu_         base::WorkerPool task queue + drain flag
//   snapshot_mu_      service::SnapshotStore current-snapshot swap
//   shard_mu          service::PlanCache per-shard LRU state
//   breaker_mu_       service::CircuitBreaker per-op state machine
//   conn_mu_          net::TcpTransport per-connection output slots
//   g_sink_mu         obs trace sink (file/stream + epoch)
//   fault_mu          fault-injection site table
//   registry_mu       obs metrics registry (innermost; everything counts)
// RPQI_LOCK_ORDER_END

#if defined(__clang__)
#define RPQI_THREAD_SAFETY_ANALYSIS_ENABLED 1
#define RPQI_THREAD_ANNOTATION_ATTRIBUTE_(x) __attribute__((x))
#else
#define RPQI_THREAD_SAFETY_ANALYSIS_ENABLED 0
#define RPQI_THREAD_ANNOTATION_ATTRIBUTE_(x)  // no-op off Clang
#endif

/// Declares a data member protected by the given capability (mutex).
#define RPQI_GUARDED_BY(x) RPQI_THREAD_ANNOTATION_ATTRIBUTE_(guarded_by(x))

/// Declares a pointer member whose *pointee* is protected by the capability.
#define RPQI_PT_GUARDED_BY(x) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(pt_guarded_by(x))

/// Documents acquisition order relative to other capabilities (checked by
/// Clang when both sides are annotated; the lint's lock-order rule is the
/// project-wide source of truth).
#define RPQI_ACQUIRED_BEFORE(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(acquired_before(__VA_ARGS__))
#define RPQI_ACQUIRED_AFTER(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(acquired_after(__VA_ARGS__))

/// The calling thread must hold the capability (exclusively / shared).
#define RPQI_REQUIRES(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(requires_capability(__VA_ARGS__))
#define RPQI_REQUIRES_SHARED(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(requires_shared_capability(__VA_ARGS__))

/// The function acquires / releases the capability and holds it past return.
#define RPQI_ACQUIRE(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(acquire_capability(__VA_ARGS__))
#define RPQI_ACQUIRE_SHARED(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(acquire_shared_capability(__VA_ARGS__))
#define RPQI_RELEASE(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(release_capability(__VA_ARGS__))
#define RPQI_RELEASE_SHARED(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(release_shared_capability(__VA_ARGS__))

/// The function attempts the acquisition; the first argument is the return
/// value that signals success.
#define RPQI_TRY_ACQUIRE(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(try_acquire_capability(__VA_ARGS__))

/// The calling thread must NOT hold the capability (deadlock prevention for
/// non-reentrant locks).
#define RPQI_EXCLUDES(...) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(locks_excluded(__VA_ARGS__))

/// Asserts (at analysis level) that the capability is held; for code reached
/// only from contexts the analysis cannot see.
#define RPQI_ASSERT_CAPABILITY(x) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(assert_capability(x))

/// The function returns a reference to the given capability.
#define RPQI_RETURN_CAPABILITY(x) \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(lock_returned(x))

/// Marks a type as a capability (mutexes) / a scoped capability (RAII locks).
#define RPQI_CAPABILITY(x) RPQI_THREAD_ANNOTATION_ATTRIBUTE_(capability(x))
#define RPQI_SCOPED_CAPABILITY RPQI_THREAD_ANNOTATION_ATTRIBUTE_(scoped_lockable)

/// Disables the analysis for one function. Requires a same-line written
/// waiver: `// lint: allow-no-tsa <why>` (tools/rpqi_lint.py, `lock-order`).
#define RPQI_NO_THREAD_SAFETY_ANALYSIS \
  RPQI_THREAD_ANNOTATION_ATTRIBUTE_(no_thread_safety_analysis)

#endif  // RPQI_BASE_THREAD_ANNOTATIONS_H_
