#include "net/tcp_server.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/mutex.h"
#include "base/thread_annotations.h"
#include "fault/fault.h"
#include "net/framing.h"
#include "obs/metrics.h"
#include "service/json.h"

namespace rpqi {
namespace net {

namespace {

const obs::Counter& AcceptedCounter() {
  static const obs::Counter counter("net.accepted");
  return counter;
}

const obs::Counter& ShedCounter() {
  static const obs::Counter counter("net.conns.shed");
  return counter;
}

const obs::Counter& OversizedCounter() {
  static const obs::Counter counter("net.oversized_lines");
  return counter;
}

const obs::Counter& BytesReadCounter() {
  static const obs::Counter counter("net.bytes_read");
  return counter;
}

const obs::Counter& BytesWrittenCounter() {
  static const obs::Counter counter("net.bytes_written");
  return counter;
}

/// Batches the WorkerPool refused (queue full); their requests were all
/// answered `overloaded` inline on the loop thread.
const obs::Counter& BatchesRejectedCounter() {
  static const obs::Counter counter("net.batches_rejected");
  return counter;
}

const obs::Gauge& OpenConnectionsGauge() {
  static const obs::Gauge gauge("net.open_connections");
  return gauge;
}

bool IsBlankLine(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

bool WouldBlock(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == EINTR;
}

}  // namespace

/// One connection: an accepted socket (in_fd == out_fd, owned) or a borrowed
/// stream pair such as stdin/stdout. The loop thread owns the fds and the
/// framing state; `conn_mu_` guards only what workers share with the loop —
/// the write buffer and the batches submitted but not yet answered. Workers
/// never see the fds, so the loop can drop the connection whenever the
/// shared state says it is finished.
///
/// Responses leave in request order. Batches from one connection may run on
/// different workers at once, so each reserves an output slot when it is
/// submitted, and a batch that finishes before an earlier one parks its
/// lines until the earlier slots are filled.
struct TcpTransport::Conn {
  Conn(int in, int out, UniqueFd owned_socket, size_t max_line_bytes)
      : socket(std::move(owned_socket)),
        in_fd(in),
        out_fd(out),
        framer(max_line_bytes) {}

  /// The accepted socket, closed with the connection; empty for a borrowed
  /// stream.
  UniqueFd socket;
  const int in_fd;
  const int out_fd;
  LineFramer framer;     // loop thread only
  bool read_closed = false;  // loop thread only: EOF seen or drain started
  bool dead = false;         // loop thread only: I/O error, drop now

  Mutex conn_mu_;
  /// Response bytes not yet on the wire; [out_pos, size) is unsent.
  std::string out_buf RPQI_GUARDED_BY(conn_mu_);
  size_t out_pos RPQI_GUARDED_BY(conn_mu_) = 0;
  /// Batches handed to the pool whose responses have not been appended yet;
  /// the connection cannot close while this is nonzero.
  int pending_batches RPQI_GUARDED_BY(conn_mu_) = 0;
  /// Output slots: the next one to reserve, the next one to append, and the
  /// lines of finished batches waiting for an earlier slot.
  uint64_t next_slot RPQI_GUARDED_BY(conn_mu_) = 0;
  uint64_t next_append RPQI_GUARDED_BY(conn_mu_) = 0;
  std::map<uint64_t, std::vector<std::string>> parked
      RPQI_GUARDED_BY(conn_mu_);

  /// Reserves the output slot of a batch about to be submitted.
  uint64_t BeginBatch() RPQI_EXCLUDES(conn_mu_) {
    MutexLock lock(&conn_mu_);
    ++pending_batches;
    return next_slot++;
  }

  /// Hands over the response lines of slot `slot`; they are appended once
  /// every earlier slot's are.
  void FinishBatch(uint64_t slot, std::vector<std::string> lines)
      RPQI_EXCLUDES(conn_mu_) {
    MutexLock lock(&conn_mu_);
    parked.emplace(slot, std::move(lines));
    for (auto it = parked.begin();
         it != parked.end() && it->first == next_append;
         it = parked.erase(it)) {
      for (const std::string& line : it->second) {
        out_buf += line;
        out_buf += '\n';
      }
      ++next_append;
      --pending_batches;
    }
  }

  bool HasUnsentBytes() RPQI_EXCLUDES(conn_mu_) {
    MutexLock lock(&conn_mu_);
    return out_pos < out_buf.size();
  }

  /// True when nothing remains: no batches in flight, nothing buffered.
  bool Finished() RPQI_EXCLUDES(conn_mu_) {
    MutexLock lock(&conn_mu_);
    return pending_batches == 0 && out_pos >= out_buf.size();
  }
};

TcpTransport::TcpTransport(service::Server* server,
                           const TcpTransportOptions& options)
    : server_(server), options_(options) {}

TcpTransport::~TcpTransport() = default;

Status TcpTransport::Listen() {
  RPQI_ASSIGN_OR_RETURN(
      listener_,
      ListenTcp(options_.bind_address, options_.port, options_.backlog));
  RPQI_ASSIGN_OR_RETURN(port_, LocalPort(listener_.get()));
  return Status::Ok();
}

void TcpTransport::RequestShutdown() {
  // order: loop-exit hint; the loop re-checks state under its own poll cycle
  shutdown_requested_.store(true, std::memory_order_relaxed);
  wake_.Notify();
}

void TcpTransport::BeginDrain() {
  draining_ = true;
  // Refuse new connections first: the drain promise is "everything already
  // accepted finishes", not "we keep taking work while finishing".
  listener_.reset();
  for (auto& [fd, conn] : conns_) conn->read_closed = true;
}

void TcpTransport::AcceptReady() {
  while (true) {
    int raw = ::accept(listener_.get(), nullptr, nullptr);
    if (raw < 0) {
      if (WouldBlock(errno)) return;
      // Transient accept failures (ECONNABORTED, EMFILE burst) just end this
      // round; the listener stays polled.
      return;
    }
    UniqueFd accepted(raw);
    // Injected accept failure: the socket is dropped before any handshake,
    // so the peer sees a connect followed by an immediate close.
    if (RPQI_FAULT_FIRED("net.accept")) continue;
    if (static_cast<int>(conns_.size()) >= options_.max_connections) {
      ShedCounter().Increment();
      // Best-effort structured rejection: one overloaded line, then close.
      // The socket is fresh and its send buffer empty, so a single short
      // write is overwhelmingly likely to carry the whole line.
      std::string line = service::ErrorResponseLine(
          service::Json::Null(), "overloaded",
          "connection limit " + std::to_string(options_.max_connections) +
              " reached");
      line += '\n';
      (void)::send(accepted.get(), line.data(), line.size(), MSG_NOSIGNAL);
      continue;
    }
    if (!SetNonBlocking(accepted.get()).ok() ||
        !SetTcpNoDelay(accepted.get()).ok()) {
      continue;
    }
    AcceptedCounter().Increment();
    int fd = accepted.get();
    conns_.emplace(fd, std::make_shared<Conn>(fd, fd, std::move(accepted),
                                              options_.max_line_bytes));
    OpenConnectionsGauge().Set(static_cast<int64_t>(conns_.size()));
  }
}

void TcpTransport::ReadReady(const std::shared_ptr<Conn>& conn) {
  // Injected read delay: this round is skipped; level-triggered poll reports
  // the data again next round, so delivery is delayed, never lost.
  if (RPQI_FAULT_FIRED("net.read")) return;
  char buf[64 * 1024];
  ssize_t n = ::read(conn->in_fd, buf, sizeof(buf));
  if (n < 0) {
    if (!WouldBlock(errno)) conn->dead = true;
    return;
  }
  std::vector<std::string> lines;
  if (n == 0) {
    conn->read_closed = true;
    // EOF mid-line: as with getline, an unterminated final line is still a
    // request.
    if (conn->framer.has_partial()) lines.push_back(conn->framer.TakePartial());
  } else {
    BytesReadCounter().Add(n);
    int oversized = conn->framer.Feed(buf, static_cast<size_t>(n), &lines);
    if (oversized > 0) {
      OversizedCounter().Add(oversized);
      std::vector<std::string> errors;
      errors.reserve(oversized);
      for (int i = 0; i < oversized; ++i) {
        errors.push_back(service::ErrorResponseLine(
            service::Json::Null(), "invalid_request",
            "request line exceeds " + std::to_string(options_.max_line_bytes) +
                " bytes"));
      }
      conn->FinishBatch(conn->BeginBatch(), std::move(errors));
    }
  }
  lines.erase(std::remove_if(lines.begin(), lines.end(), IsBlankLine),
              lines.end());
  SubmitLines(conn, std::move(lines));
}

void TcpTransport::SubmitLines(const std::shared_ptr<Conn>& conn,
                               std::vector<std::string> lines) {
  for (size_t start = 0; start < lines.size();
       start += static_cast<size_t>(options_.max_batch)) {
    size_t end = std::min(lines.size(),
                          start + static_cast<size_t>(options_.max_batch));
    std::vector<std::string> chunk(
        std::make_move_iterator(lines.begin() + start),
        std::make_move_iterator(lines.begin() + end));
    std::shared_ptr<service::Server::ParsedBatch> batch =
        server_->ParseBatch(chunk);
    const uint64_t slot = conn->BeginBatch();
    // Models a queue-full burst without real backpressure: the batch takes
    // the exact `overloaded` rejection path below.
    bool submitted = !RPQI_FAULT_FIRED("service.queue_full") &&
                     pool_->TrySubmit([this, conn, batch, slot] {
                       conn->FinishBatch(slot,
                                         server_->ExecuteBatch(batch.get()));
                       wake_.Notify();
                     });
    if (!submitted) {
      BatchesRejectedCounter().Increment();
      conn->FinishBatch(
          slot, server_->RejectBatch(
                    batch.get(), "overloaded",
                    "request queue full (depth " +
                        std::to_string(
                            server_->options().admission.queue_depth) +
                        ")"));
    }
    if (service::Server::RequestsShutdown(*batch)) {
      // ParseBatch stopped at the shutdown request; the rest of this read is
      // dropped, and no connection reads again.
      BeginDrain();
      return;
    }
  }
}

void TcpTransport::WriteReady(const std::shared_ptr<Conn>& conn) {
  MutexLock lock(&conn->conn_mu_);
  while (conn->out_pos < conn->out_buf.size()) {
    size_t len = conn->out_buf.size() - conn->out_pos;
    // Injected short write: one byte goes out, exercising the resume path a
    // slow client's full send buffer would hit.
    if (RPQI_FAULT_FIRED("net.write")) len = 1;
    const char* data = conn->out_buf.data() + conn->out_pos;
    // send(MSG_NOSIGNAL) keeps a vanished TCP peer from raising SIGPIPE; a
    // borrowed stream may not be a socket at all.
    ssize_t wrote = conn->socket.valid()
                        ? ::send(conn->out_fd, data, len, MSG_NOSIGNAL)
                        : ::write(conn->out_fd, data, len);
    if (wrote < 0) {
      if (!WouldBlock(errno)) conn->dead = true;
      return;
    }
    BytesWrittenCounter().Add(wrote);
    conn->out_pos += static_cast<size_t>(wrote);
  }
  conn->out_buf.clear();
  conn->out_pos = 0;
}

Status TcpTransport::Serve() {
  if (!listener_.valid()) RPQI_RETURN_IF_ERROR(Listen());
  return Loop();
}

Status TcpTransport::ServeStream(int in_fd, int out_fd) {
  // A closed descriptor would be reused by the wake pipe, and the loop would
  // then read its own wakeups or write into them.
  for (int fd : {in_fd, out_fd}) {
    if (::fcntl(fd, F_GETFD) < 0) {
      return Status::InvalidArgument("serve: file descriptor " +
                                     std::to_string(fd) + " is not open");
    }
  }
  conns_.emplace(in_fd, std::make_shared<Conn>(in_fd, out_fd, UniqueFd(),
                                               options_.max_line_bytes));
  return Loop();
}

Status TcpTransport::Loop() {
  Status status = wake_.Open();
  // order: fresh serve cycle; flag-only reset before any reader exists
  shutdown_requested_.store(false, std::memory_order_relaxed);
  draining_ = false;
  if (status.ok()) {
    WorkerPool pool(server_->options().threads,
                    server_->options().admission.queue_depth);
    pool_ = &pool;
    std::vector<PollEvent> events;
    std::vector<std::shared_ptr<Conn>> polled;
    auto watch = [&](int fd, bool read, bool write,
                     const std::shared_ptr<Conn>& conn) {
      if (!read && !write) return;
      PollEvent event;
      event.fd = fd;
      event.want_read = read;
      event.want_write = write;
      events.push_back(event);
      polled.push_back(conn);
    };
    while (true) {
      // order: flag-only hint set by other threads; everything the drain
      // acts on is re-read from the connection table below
      if (shutdown_requested_.load(std::memory_order_relaxed) && !draining_) {
        BeginDrain();
      }
      // Sweep connections that are finished (or dead). A finished connection
      // whose input hit EOF — or whose server is draining — has answered and
      // flushed everything it ever admitted.
      for (auto it = conns_.begin(); it != conns_.end();) {
        Conn& conn = *it->second;
        if (conn.dead || (conn.read_closed && conn.Finished())) {
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
      OpenConnectionsGauge().Set(static_cast<int64_t>(conns_.size()));
      if (!listener_.valid() && conns_.empty()) break;

      events.clear();
      polled.clear();
      watch(wake_.read_fd(), true, false, nullptr);
      if (listener_.valid()) watch(listener_.get(), true, false, nullptr);
      for (auto& [fd, conn] : conns_) {
        const bool want_read = !conn->read_closed;
        const bool want_write = conn->HasUnsentBytes();
        if (conn->in_fd == conn->out_fd) {
          watch(conn->in_fd, want_read, want_write, conn);
        } else {
          watch(conn->in_fd, want_read, false, conn);
          watch(conn->out_fd, false, want_write, conn);
        }
      }
      // The wake pipe interrupts the poll whenever a worker finishes a
      // batch; the finite timeout is a belt-and-suspenders liveness floor.
      StatusOr<int> ready = PollSockets(&events, 500);
      if (!ready.ok()) {
        status = ready.status();
        break;
      }
      for (size_t i = 0; i < events.size(); ++i) {
        const PollEvent& event = events[i];
        const std::shared_ptr<Conn>& conn = polled[i];
        if (conn == nullptr) {
          if (event.fd == wake_.read_fd()) {
            if (event.readable) wake_.Drain();
          } else if (event.readable && listener_.valid()) {
            AcceptReady();
          }
          continue;
        }
        if (event.error && !event.want_read) {
          conn->dead = true;
          continue;
        }
        if (event.writable) WriteReady(conn);
        // A hangup on the input side may still have data queued behind it
        // (a pipe whose writer closed): read() tells data, EOF or error.
        if ((event.readable || event.error) && event.want_read &&
            !conn->dead && !conn->read_closed) {
          ReadReady(conn);
        }
      }
    }
    pool.Drain();
    pool_ = nullptr;
  }
  conns_.clear();
  listener_.reset();
  return status;
}

}  // namespace net
}  // namespace rpqi
