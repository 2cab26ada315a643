#ifndef RPQI_GRAPHDB_IO_H_
#define RPQI_GRAPHDB_IO_H_

#include <string>
#include <string_view>

#include "base/status.h"
#include "graphdb/graph.h"
#include "rpq/alphabet.h"

namespace rpqi {

/// Resource limits and error-context options for graph parsing: malformed or
/// adversarial input (huge node populations, unbounded token lengths) is
/// rejected with an InvalidArgument naming the offending location instead of
/// exhausting memory.
struct GraphTextLimits {
  int max_nodes = 1 << 22;
  int64_t max_edges = int64_t{1} << 26;
  size_t max_name_length = 4096;
  /// Prepended to every error ("<source_name>: line N (byte B): ...") so a
  /// failure that crosses layers — LoadGraphSnapshot, `admin reload` — still
  /// names the file it came from. Borrowed for the duration of the call;
  /// empty = no prefix (in-memory text with no useful name).
  std::string_view source_name = {};
};

/// Parses the whitespace text format, one edge per line:
///   <from-node> <relation> <to-node>
/// Blank lines and lines starting with '#' are skipped. Relations are
/// registered into `alphabet` (so relation ids stay coordinated with query
/// compilation); nodes are interned into the returned database. Every error
/// reports the source name (when given), the 1-based line number, and the
/// 0-based byte offset of that line's start — deep failures keep full file
/// context no matter how many layers they propagate through.
StatusOr<GraphDb> LoadGraphText(std::string_view text, SignedAlphabet* alphabet,
                                const GraphTextLimits& limits = {});

/// Serializes back to the text format (stable node/relation names), one line
/// per edge in label-index order: by source node, then relation, then target.
std::string SaveGraphText(const GraphDb& db, const SignedAlphabet& alphabet);

/// Content fingerprint of a text snapshot — the plan-cache key component.
/// Byte-stable across builds and platforms; a columnar snapshot's header
/// persists the source text's fingerprint so both formats of the same graph
/// share plan-cache keys (`rpqi compact` relies on this).
uint64_t FingerprintGraphText(std::string_view text);

}  // namespace rpqi

#endif  // RPQI_GRAPHDB_IO_H_
