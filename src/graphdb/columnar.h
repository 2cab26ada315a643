#ifndef RPQI_GRAPHDB_COLUMNAR_H_
#define RPQI_GRAPHDB_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "graphdb/graph.h"
#include "rpq/alphabet.h"

namespace rpqi {

/// Binary columnar snapshot format ("RPQICOL1"), the on-disk twin of
/// GraphDb's label index (DESIGN.md §15 has the layout diagram):
///
///   * a fixed 200-byte little-endian header — magic, version, endianness
///     tag, total size, payload checksum, content fingerprint, counts, and a
///     section table;
///   * a dictionary-encoded node table: names concatenated in id order plus
///     a u64 offset array, and a u32 permutation of ids sorted by name (so
///     the read path needs no hash map — NodeId is a binary search);
///   * relation names, same blob + offsets encoding;
///   * one CSR per (relation, direction): a u64 offsets array of
///     num_relations * num_nodes + 1 entries indexed
///     `relation * num_nodes + node`, and a u32 targets array with each span
///     sorted ascending. The inverse direction is materialized, not
///     recomputed.
///
/// Every section offset is 8-byte aligned, so a page-aligned mmap can serve
/// the u64/u32 arrays by pointer cast; the static_asserts in columnar.cc pin
/// the header layout. Multi-byte fields are little-endian; the endian tag
/// rejects a snapshot written by a foreign byte order instead of
/// misinterpreting it. Validation errors name the absolute byte offset of the
/// offending field.

inline constexpr char kColumnarMagic[8] = {'R', 'P', 'Q', 'I',
                                           'C', 'O', 'L', '1'};
inline constexpr uint32_t kColumnarVersion = 1;
inline constexpr uint32_t kColumnarEndianTag = 0x01020304;

/// True when `prefix` (the first bytes of a file) starts with the columnar
/// magic — the sniff LoadGraphSnapshot uses to route binary snapshots to the
/// mmap loader while text stays on the parse path.
bool IsColumnarSnapshot(std::string_view prefix);

enum ColumnarSectionId : int {
  kSectionNodeNameBlob = 0,
  kSectionNodeNameOffsets,    // u64[num_nodes + 1]
  kSectionNodesByName,        // u32[num_nodes]
  kSectionRelationNameBlob,
  kSectionRelationNameOffsets,  // u64[num_relations + 1]
  kSectionOutOffsets,           // u64[num_relations * num_nodes + 1]
  kSectionOutTargets,           // u32[num_edges]
  kSectionInOffsets,
  kSectionInTargets,
  kColumnarSectionCount
};

/// Validated, zero-copy view of one columnar snapshot: raw pointers into
/// `backing` (an mmapped file or an in-memory buffer) whose bounds,
/// alignment, monotonicity, and dictionary order have all been checked by
/// ParseColumnarView — the pointer-cast accessors are safe to iterate.
struct ColumnarParts {
  std::shared_ptr<const void> backing;
  uint64_t fingerprint = 0;
  int64_t file_bytes = 0;
  int num_nodes = 0;
  int num_relations = 0;
  int64_t num_edges = 0;
  const char* name_blob = nullptr;
  const uint64_t* name_offsets = nullptr;
  const uint32_t* nodes_by_name = nullptr;
  const char* relation_blob = nullptr;
  const uint64_t* relation_offsets = nullptr;
  const uint64_t* out_offsets = nullptr;
  const uint32_t* out_targets = nullptr;
  const uint64_t* in_offsets = nullptr;
  const uint32_t* in_targets = nullptr;

  std::string_view RelationName(int relation) const {
    return {relation_blob + relation_offsets[relation],
            static_cast<size_t>(relation_offsets[relation + 1] -
                                relation_offsets[relation])};
  }
};

/// Serializes `db` to the binary format. `fingerprint` is
/// stored in the header and becomes the plan-cache content fingerprint of
/// every load of the file — pass the source text's fingerprint
/// (FingerprintGraphText) when converting, so a text snapshot and its
/// compacted twin share plan-cache keys.
StatusOr<std::string> EncodeColumnar(const GraphDb& db,
                                     const SignedAlphabet& alphabet,
                                     uint64_t fingerprint);

/// EncodeColumnar + atomic file replace (write to `path`.tmp, then rename).
/// Carries the `graphdb.compact_write` fault site.
Status WriteColumnarFile(const std::string& path, const GraphDb& db,
                         const SignedAlphabet& alphabet, uint64_t fingerprint);

/// Validates `size` bytes at `data` (which `backing` keeps alive) as a
/// columnar snapshot. `data` must be 8-byte aligned (mmap always is; the
/// in-memory overload checks). Errors carry `source_name` and the byte
/// offset of the offending field.
StatusOr<ColumnarParts> ParseColumnarView(const char* data, size_t size,
                                          std::shared_ptr<const void> backing,
                                          std::string_view source_name);

/// mmaps `path` (MAP_PRIVATE, read-only) and parses it. The mapping lives as
/// long as any ColumnarParts/GraphDb derived from it.
StatusOr<ColumnarParts> OpenColumnarFile(const std::string& path);

/// ParseColumnarView over an owned in-memory buffer (tests, corruption
/// harnesses); rejects misaligned buffers.
StatusOr<ColumnarParts> DecodeColumnar(std::shared_ptr<const std::string> bytes,
                                       std::string_view source_name);

/// Builds the GraphDb for `parts` under the caller's relation numbering:
/// registers the file's relations into `alphabet` in file order
/// (SignedAlphabet::AddRelation) and maps file relation i to the id it gets.
/// When those ids are 0.. in file order and the alphabet has no other
/// relations, the adjacency is zero-copy views into the backing; a caller
/// whose alphabet already numbered the relations differently (e.g.
/// `rewrite --db` after registering view relations) gets a remapped
/// in-memory CSR instead — rare, but correct.
GraphDb MakeColumnarGraphDb(const ColumnarParts& parts,
                            SignedAlphabet* alphabet);

/// Semantic equality of two databases under their own alphabets, matching
/// nodes and relations by name: same node-name set, same edge multiset
/// {(from, relation, to)}. This is the `rpqi compact --validate` round-trip
/// check (node ids may legitimately differ after a binary -> text -> parse
/// cycle, so ids are not compared).
Status CheckGraphEquivalence(const GraphDb& a, const SignedAlphabet& alpha_a,
                             const GraphDb& b, const SignedAlphabet& alpha_b);

}  // namespace rpqi

#endif  // RPQI_GRAPHDB_COLUMNAR_H_
