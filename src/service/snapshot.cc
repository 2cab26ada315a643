#include "service/snapshot.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/validate.h"
#include "base/mutex.h"
#include "fault/fault.h"
#include "graphdb/columnar.h"
#include "graphdb/io.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rpqi {
namespace service {
namespace {

/// Loads and validates; returns a still-mutable snapshot so SnapshotStore can
/// stamp the version before publishing it as const. `*transient` is set true
/// only for failures that happened before the content was judged (open/read
/// errors) — those are worth retrying; parse and validation errors are not.
/// Columnar files are one exception: every OpenColumnarFile failure
/// (truncation, checksum, structure) stays transient, because `rpqi compact`
/// publishes by atomic rename — a torn binary means a replace is in flight
/// and a retry will see the complete file.
StatusOr<std::shared_ptr<GraphSnapshot>> LoadMutable(
    const std::string& path, const SignedAlphabet& base_alphabet,
    bool* transient) {
  static const obs::Counter loads("service.snapshot.loads");
  static const obs::Counter mmap_opens("service.snapshot.mmap_opens");
  static const obs::Counter mmap_bytes("service.snapshot.mmap_bytes");
  obs::Span span("service.snapshot.load");
  *transient = true;  // until the content is in memory, failures are I/O
  RPQI_FAULT_POINT("snapshot.open",
                   Status::InvalidArgument("cannot open '" + path +
                                           "': injected open failure"));
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::InvalidArgument("cannot open '" + path + "'");
  }
  // Sniff the magic: binary columnar snapshots take the mmap path, anything
  // else stays on the text import path. A short read just means "too small
  // to be columnar".
  char prefix[8] = {};
  in.read(prefix, sizeof(prefix));
  if (IsColumnarSnapshot(std::string_view(prefix, sizeof(prefix)))) {
    in.close();
    // Models mmap(2)/open(2) failing on the binary path (ENOMEM, EACCES, a
    // file swapped out from under us).
    RPQI_FAULT_POINT("snapshot.mmap_open",
                     Status::InvalidArgument("cannot mmap '" + path +
                                             "': injected mmap failure"));
    RPQI_ASSIGN_OR_RETURN(ColumnarParts parts, OpenColumnarFile(path));
    *transient = false;  // a complete, checksummed file is in hand
    auto snapshot = std::make_shared<GraphSnapshot>();
    snapshot->alphabet = base_alphabet;
    snapshot->source_path = path;
    // The header carries the *source text's* fingerprint, so reloading the
    // compacted twin of a text snapshot keeps the plan cache warm.
    snapshot->fingerprint = parts.fingerprint;
    int64_t bytes = parts.file_bytes;
    snapshot->db = MakeColumnarGraphDb(parts, &snapshot->alphabet);
    RPQI_RETURN_IF_ERROR(
        ValidateGraphDb(snapshot->db, snapshot->alphabet.NumRelations()));
    loads.Increment();
    mmap_opens.Increment();
    mmap_bytes.Add(bytes);
    span.Note("nodes", snapshot->db.NumNodes());
    span.Note("edges", snapshot->db.NumEdges());
    return snapshot;
  }
  in.clear();
  in.seekg(0);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  // Models read(2) returning short / EIO after a successful open. The text is
  // deliberately NOT truncated for real: a truncation at a line boundary can
  // still parse and would silently load a partial graph.
  RPQI_FAULT_POINT("snapshot.read",
                   Status::InvalidArgument("error reading '" + path +
                                           "': injected short read"));
  if (in.bad()) {
    return Status::InvalidArgument("error reading '" + path + "'");
  }
  *transient = false;  // content is in hand; anything below is the file's fault

  auto snapshot = std::make_shared<GraphSnapshot>();
  snapshot->alphabet = base_alphabet;
  snapshot->source_path = path;
  snapshot->fingerprint = FingerprintGraphText(text);
  GraphTextLimits limits;
  limits.source_name = path;
  RPQI_ASSIGN_OR_RETURN(snapshot->db,
                        LoadGraphText(text, &snapshot->alphabet, limits));
  RPQI_RETURN_IF_ERROR(
      ValidateGraphDb(snapshot->db, snapshot->alphabet.NumRelations()));
  loads.Increment();
  span.Note("nodes", snapshot->db.NumNodes());
  span.Note("edges", snapshot->db.NumEdges());
  return snapshot;
}

}  // namespace

StatusOr<std::shared_ptr<const GraphSnapshot>> LoadGraphSnapshot(
    const std::string& path, const SignedAlphabet& base_alphabet) {
  bool transient = false;
  RPQI_ASSIGN_OR_RETURN(std::shared_ptr<GraphSnapshot> snapshot,
                        LoadMutable(path, base_alphabet, &transient));
  return std::shared_ptr<const GraphSnapshot>(std::move(snapshot));
}

StatusOr<int64_t> SnapshotStore::Reload(const std::string& path,
                                        const ReloadRetryPolicy& policy,
                                        bool* transient) {
  static const obs::Counter reloads("service.snapshot.reloads");
  static const obs::Counter retries("service.snapshot.retries");
  static const obs::Counter failures("service.snapshot.reload_failures");
  static const obs::Gauge version_gauge("service.snapshot.version");
  bool local_transient = false;
  if (transient == nullptr) transient = &local_transient;
  int attempts = policy.attempts < 1 ? 1 : policy.attempts;
  int64_t backoff_ms = policy.backoff_ms;
  for (int attempt = 1;; ++attempt) {
    *transient = false;
    // Load outside the lock: a slow parse must not block Current() readers.
    StatusOr<std::shared_ptr<GraphSnapshot>> loaded =
        LoadMutable(path, SignedAlphabet(), transient);
    Status failure = Status::Ok();
    if (loaded.ok()) {
      // Models a crash between load and publish (the classic "reload worked
      // but never took effect" incident). The store is untouched and no
      // version number is consumed, so a retry continues the same sequence.
      *transient = true;
      if (!RPQI_FAULT_FIRED("snapshot.reload_swap")) {
        *transient = false;
        MutexLock lock(&snapshot_mu_);
        int64_t version = ++versions_issued_;
        (*loaded)->version = version;
        current_ = std::move(loaded).value();
        reloads.Increment();
        version_gauge.Set(version);
        return version;
      }
      failure = Status::InvalidArgument(
          "injected failure publishing reloaded snapshot '" + path + "'");
    } else {
      failure = loaded.status();
    }
    // Only transient failures are worth another attempt; a parse/validation
    // error is a property of the file and would just re-fail.
    if (!*transient || attempt >= attempts) {
      failures.Increment();
      return failure;
    }
    retries.Increment();
    if (backoff_ms > 0) {
      if (policy.sleeper) {
        policy.sleeper(backoff_ms);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
      // Exponential, with a shift-overflow guard for absurd configs.
      if (backoff_ms < (int64_t{1} << 60)) backoff_ms *= 2;
    }
  }
}

std::shared_ptr<const GraphSnapshot> SnapshotStore::Current() const {
  MutexLock lock(&snapshot_mu_);
  return current_;
}

int64_t SnapshotStore::version() const {
  MutexLock lock(&snapshot_mu_);
  return current_ == nullptr ? 0 : current_->version;
}

}  // namespace service
}  // namespace rpqi
