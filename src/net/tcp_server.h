#ifndef RPQI_NET_TCP_SERVER_H_
#define RPQI_NET_TCP_SERVER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/socket.h"
#include "base/status.h"
#include "base/thread_pool.h"
#include "service/server.h"

namespace rpqi {
namespace net {

/// Configuration for one TcpTransport. The worker-thread count and queue
/// depth come from the Server's own options — the transport is a frontend,
/// not a second scheduler. The first four fields are TCP-only; the rest apply
/// to every connection, the stdio stream included.
struct TcpTransportOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 asks the kernel for an ephemeral port; read it back with port().
  int port = 0;
  /// Accepted connections held open at once. One more is shed at accept time:
  /// it receives a single `overloaded` error line and is closed, so clients
  /// see a structured rejection instead of a silent RST or an unbounded
  /// backlog.
  int max_connections = 64;
  int backlog = 128;
  /// Longest request line accepted — the only request-size limit in serve.
  /// The framer stops buffering a line the moment it crosses the limit,
  /// swallows the rest of it, and answers it with `invalid_request`; the
  /// connection survives.
  size_t max_line_bytes = size_t{1} << 20;
  /// Most lines admitted as one batch. Adjacent lines arriving in one read
  /// share a snapshot pin and plan-cache lookups (service.batch.* counters);
  /// the cap bounds how long one batch monopolizes a worker.
  int max_batch = 64;
};

/// The request loop behind `rpqi serve`, for both transports: Serve() accepts
/// TCP connections, ServeStream() serves one borrowed stream pair (stdin and
/// stdout). Every connection speaks the same NDJSON protocol — one JSON
/// request per line in, one JSON response line out — and gets its responses
/// in request order.
///
/// Architecture: a single poll(2) readiness loop owns the listener, the
/// connection table, and every read and write; Server work runs on the
/// Server's bounded WorkerPool. Each read round's complete lines form
/// batches of up to max_batch lines (ParseBatch — admission happens on the
/// loop thread, at arrival), each batch is one pool task, and the worker
/// hands its response lines to the connection's output slots under that
/// connection's `conn_mu_` and rings the wake pipe so the loop re-polls for
/// writability. Only the loop thread ever touches file descriptors; workers
/// touch nothing but the buffer, so a peer that disconnects mid-batch costs
/// an orphaned buffer append and nothing else.
///
/// Overload shows up in three distinct, structured ways:
///   - accept-time shedding (`overloaded` line + close) past max_connections;
///   - WorkerPool queue full: the whole batch is answered `overloaded`
///     (`net.batches_rejected`);
///   - namespace quotas: per-request `overloaded` inside ParseBatch.
///
/// Shutdown: an `admin shutdown` on ANY connection (or RequestShutdown())
/// closes the listener and stops reading on every connection. Lines after
/// the shutdown request in the same read are not parsed, admitted or
/// answered. Every batch already admitted — on every connection — still
/// executes, and every output buffer drains before the loop lets its
/// connection go. A client that asks the server to stop never truncates
/// another client's in-flight responses.
///
/// Fault sites: `net.accept` (accepted socket dropped immediately —
/// connect-reset seen by the peer), `net.read` (a read round skipped —
/// delivery delay), `net.write` (write capped to one byte — pathological
/// short write exercising the partial-write resume path),
/// `service.queue_full` (a batch rejected as if the pool queue were full).
class TcpTransport {
 public:
  TcpTransport(service::Server* server, const TcpTransportOptions& options);
  ~TcpTransport();

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Binds and listens. After Ok, port() reports the bound port (useful with
  /// port 0).
  Status Listen();

  int port() const { return port_; }

  /// Blocking TCP serve loop (listens first if Listen() was not called);
  /// returns after a clean drain (shutdown requested and every admitted
  /// batch answered + flushed).
  Status Serve();

  /// Blocking serve loop over one connection that reads `in_fd` and writes
  /// `out_fd` (`rpqi serve` passes 0 and 1). The fds are borrowed: they are
  /// neither closed nor switched to non-blocking mode — poll gates every
  /// read and write; a closed one is an InvalidArgument. Returns once the
  /// connection has seen EOF or a shutdown and every admitted batch is
  /// answered and written.
  Status ServeStream(int in_fd, int out_fd);

  /// Asks the running loop to drain and return. Safe from any thread and
  /// from signal handlers (the wake pipe's write(2) is async-signal-safe).
  void RequestShutdown();

 private:
  struct Conn;

  /// The loop shared by Serve and ServeStream; runs until no listener and no
  /// connection remain.
  Status Loop();
  /// Accepts until EAGAIN, shedding past max_connections.
  void AcceptReady();
  /// One read round on `conn`: read, frame, batch, submit.
  void ReadReady(const std::shared_ptr<Conn>& conn);
  /// Flushes as much of the connection's output buffer as the fd takes.
  void WriteReady(const std::shared_ptr<Conn>& conn);
  /// Groups `lines` into batches of <= max_batch and hands them to the pool
  /// (or rejects them inline when the pool is full). Stops after a batch
  /// that requests shutdown.
  void SubmitLines(const std::shared_ptr<Conn>& conn,
                   std::vector<std::string> lines);
  /// Enters drain mode: close the listener, stop reading everywhere.
  void BeginDrain();

  service::Server* const server_;
  const TcpTransportOptions options_;
  UniqueFd listener_;
  int port_ = 0;
  WakePipe wake_;
  /// Set by RequestShutdown (any thread); the loop polls it each round.
  std::atomic<bool> shutdown_requested_{false};
  /// Loop-thread state: the connection table (keyed by input fd) and drain
  /// flag are only touched from the loop's thread.
  std::map<int, std::shared_ptr<Conn>> conns_;
  bool draining_ = false;
  /// The pool batches execute on; non-null only while the loop runs (it is
  /// a Loop-local owned via this pointer so SubmitLines can reach it).
  WorkerPool* pool_ = nullptr;
};

}  // namespace net
}  // namespace rpqi

#endif  // RPQI_NET_TCP_SERVER_H_
