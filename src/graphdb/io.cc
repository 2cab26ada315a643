#include "graphdb/io.h"

#include <utility>

#include "base/hash.h"
#include "base/strings.h"
#include "fault/fault.h"

namespace rpqi {

namespace {

/// "<source>: line N (byte B): " — the context every parse error carries.
std::string ErrorContext(const GraphTextLimits& limits, int line_number,
                         size_t byte_offset) {
  std::string prefix;
  if (!limits.source_name.empty()) {
    prefix.append(limits.source_name);
    prefix += ": ";
  }
  prefix += "line " + std::to_string(line_number) + " (byte " +
            std::to_string(byte_offset) + "): ";
  return prefix;
}

/// Truncates adversarially long lines before they end up inside an error
/// message (the message itself must stay one readable line).
std::string Excerpt(std::string_view line) {
  constexpr size_t kMaxExcerpt = 80;
  if (line.size() <= kMaxExcerpt) return std::string(line);
  return std::string(line.substr(0, kMaxExcerpt)) + "...";
}

}  // namespace

StatusOr<GraphDb> LoadGraphText(std::string_view text, SignedAlphabet* alphabet,
                                const GraphTextLimits& limits) {
  GraphBuilder builder;
  int line_number = 0;
  int64_t num_edges = 0;
  // Split lines by hand (StrSplit drops empty pieces, which would make the
  // reported line numbers drift past any blank line).
  for (size_t start = 0; start <= text.size();) {
    size_t line_start = start;
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view raw_line = text.substr(start, end - start);
    start = end + 1;
    ++line_number;
    std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line[0] == '#') continue;
    // Models the read(2) that fails halfway through a streamed parse: the
    // error carries the same file/line/byte context as a real one.
    RPQI_FAULT_POINT("graphdb.parse_io",
                     Status::InvalidArgument(
                         ErrorContext(limits, line_number, line_start) +
                         "injected I/O error while parsing"));
    std::vector<std::string> fields = StrSplit(line, ' ');
    // Tolerate repeated separators by dropping empties (StrSplit already does).
    if (fields.size() != 3) {
      return Status::InvalidArgument(
          ErrorContext(limits, line_number, line_start) +
          "expected '<from> <relation> <to>', got '" + Excerpt(line) + "'");
    }
    for (const std::string& field : fields) {
      if (field.size() > limits.max_name_length) {
        return Status::InvalidArgument(
            ErrorContext(limits, line_number, line_start) + "name '" +
            Excerpt(field) + "' exceeds " +
            std::to_string(limits.max_name_length) + " characters");
      }
    }
    if (++num_edges > limits.max_edges) {
      return Status::InvalidArgument(
          ErrorContext(limits, line_number, line_start) + "graph exceeds " +
          std::to_string(limits.max_edges) + " edges");
    }
    int from = builder.AddNode(fields[0]);
    int relation = alphabet->AddRelation(fields[1]);
    int to = builder.AddNode(fields[2]);
    if (builder.NumNodes() > limits.max_nodes) {
      return Status::InvalidArgument(
          ErrorContext(limits, line_number, line_start) + "graph exceeds " +
          std::to_string(limits.max_nodes) + " nodes");
    }
    builder.AddEdge(from, relation, to);
  }
  return std::move(builder).Build();
}

std::string SaveGraphText(const GraphDb& db, const SignedAlphabet& alphabet) {
  // Label-index order: by source node, then relation, then target. Isolated
  // nodes are not representable in the text format (a line is an edge).
  std::string out;
  const int num_relations = db.label_csr().num_relations;
  for (int node = 0; node < db.NumNodes(); ++node) {
    for (int r = 0; r < num_relations; ++r) {
      for (uint32_t to : db.OutTargets(node, r)) {
        out += db.NodeName(node);
        out += ' ';
        out += alphabet.RelationName(r);
        out += ' ';
        out += db.NodeName(static_cast<int>(to));
        out += '\n';
      }
    }
  }
  return out;
}

uint64_t FingerprintGraphText(std::string_view text) {
  // Hash 8 bytes at a time plus a length term; the tail bytes are folded in
  // one by one. Content-addressed, so identical text => identical key space.
  // The algorithm is part of the columnar format (headers persist the source
  // text's fingerprint), so it must stay byte-stable across builds.
  uint64_t h = HashCombine(0x5349474e41505348ULL, text.size());
  size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    uint64_t word = 0;
    for (int b = 0; b < 8; ++b) {
      word |= static_cast<uint64_t>(static_cast<unsigned char>(text[i + b]))
              << (8 * b);
    }
    h = HashCombine(h, word);
  }
  for (; i < text.size(); ++i) {
    h = HashCombine(h, static_cast<unsigned char>(text[i]));
  }
  return h;
}

}  // namespace rpqi
