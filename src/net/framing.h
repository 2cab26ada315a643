#ifndef RPQI_NET_FRAMING_H_
#define RPQI_NET_FRAMING_H_

#include <cstddef>
#include <string>
#include <vector>

namespace rpqi {
namespace net {

/// Incremental NDJSON line framing over a byte stream. A socket or pipe hands
/// the transport arbitrary chunks — half a line, three lines and a fragment —
/// so the framer accumulates bytes until it sees '\n' and emits complete
/// lines (without the terminator; a trailing '\r' is stripped for
/// telnet-style clients).
///
/// A line longer than `max_line_bytes` is abandoned the moment the limit is
/// crossed: the framer switches to discard mode, swallows bytes until the
/// next '\n', and reports the event through Feed's return value so the
/// transport can answer it with a structured `invalid_request` — the peer
/// keeps its connection and its framing, only the oversized request dies.
/// Memory stays bounded by the limit however long the line runs; this is
/// serve's only request-size guard.
class LineFramer {
 public:
  explicit LineFramer(size_t max_line_bytes)
      : max_line_bytes_(max_line_bytes) {}

  /// Consumes `data` and appends every completed line to `*lines`. Returns
  /// the number of oversized lines rejected during this call (each deserves
  /// one error response).
  int Feed(const char* data, size_t size, std::vector<std::string>* lines);

  /// Bytes buffered for an incomplete line (diagnostics/tests).
  size_t pending_bytes() const { return partial_.size(); }

  /// True when the stream ended mid-line (EOF with no trailing newline); the
  /// stdio protocol treats such a fragment as a request, so the transport
  /// can choose to flush it.
  bool has_partial() const { return !partial_.empty() && !discarding_; }

  /// Hands over the unterminated tail (valid when has_partial()).
  std::string TakePartial();

 private:
  const size_t max_line_bytes_;
  std::string partial_;
  /// True while swallowing the remainder of an oversized line.
  bool discarding_ = false;
};

}  // namespace net
}  // namespace rpqi

#endif  // RPQI_NET_FRAMING_H_
