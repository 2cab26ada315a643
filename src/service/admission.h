#ifndef RPQI_SERVICE_ADMISSION_H_
#define RPQI_SERVICE_ADMISSION_H_

#include <chrono>
#include <cstdint>

#include "base/budget.h"
#include "base/status.h"

namespace rpqi {
namespace service {

/// Server-wide admission policy: the queue bound plus the default/maximum
/// per-request execution quotas. Zero means "no limit" for every field except
/// queue_depth.
struct AdmissionPolicy {
  /// Batches accepted but not yet executing (the transport submits each
  /// batch of up to --max-batch request lines as one task); every request of
  /// a batch past this bound is rejected with the `overloaded` error code.
  int queue_depth = 64;
  /// Deadline applied when a request carries no timeout_ms of its own.
  int64_t default_timeout_ms = 0;
  /// Upper bound clamped onto request-supplied timeouts (0 = no cap): a
  /// client cannot opt out of the operator's latency ceiling.
  int64_t max_timeout_ms = 0;
  /// State quota applied when a request carries no max_states of its own.
  int64_t default_max_states = 0;
  /// Upper bound clamped onto request-supplied state quotas (0 = no cap).
  int64_t max_states_cap = 0;
};

/// The execution grant attached to one admitted request. The deadline is
/// anchored at *admission* time, so time spent queued behind other requests
/// counts against the request's budget — under overload, stale requests fail
/// fast at dequeue instead of occupying a worker.
struct Admission {
  std::chrono::steady_clock::time_point admitted_at;
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline;
  int64_t max_states = 0;  // 0 = unlimited

  /// Materializes the grant as a Budget for the executing worker. Call at
  /// execution start; an already-expired deadline fails the first Check().
  Budget MakeBudget() const {
    Budget budget;
    if (has_deadline) budget.set_deadline(deadline);
    if (max_states > 0) budget.set_max_states(max_states);
    return budget;
  }

  /// True when the deadline passed while the request sat in the queue.
  bool ExpiredInQueue() const {
    return has_deadline && std::chrono::steady_clock::now() > deadline;
  }
};

/// Derives one request's execution grant from the policy. `timeout_ms` and
/// `max_states` are the request's own asks (0 = absent): defaults fill gaps,
/// caps clamp excess. Effective timeouts are additionally clamped to 2^40 ms
/// (~35 years) so absurd client values cannot overflow deadline arithmetic.
Admission AdmitRequest(const AdmissionPolicy& policy, int64_t timeout_ms,
                       int64_t max_states);

}  // namespace service
}  // namespace rpqi

#endif  // RPQI_SERVICE_ADMISSION_H_
