#ifndef RPQI_GRAPHDB_GRAPH_H_
#define RPQI_GRAPHDB_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/interner.h"
#include "base/logging.h"

namespace rpqi {

/// CSR adjacency indexed by (relation, direction): row `relation * num_nodes
/// + node` of `offsets` brackets that node's targets for that relation, so
/// the eval BFS iterates exactly the edges carrying the transition's label
/// instead of filtering the node's whole edge list. Targets within a span are
/// sorted ascending (binary-searchable membership; duplicates allowed — the
/// database is a multigraph).
///
/// The arrays either live in the `_store` vectors (built in memory by
/// GraphBuilder::Build, or remapped from a snapshot) or point into an mmapped
/// columnar snapshot (the `ext_` pointers; the owning GraphDb holds the
/// mapping alive through its backing handle). Accessors resolve
/// external-first so the struct stays safely copyable: copying an owned
/// index copies the vectors and leaves the external pointers null. A
/// default LabelCsr is the valid index of the empty graph: zero rows, one
/// offset.
struct LabelCsr {
  int num_nodes = 0;
  int num_relations = 0;

  const uint64_t* ext_out_offsets = nullptr;
  const uint32_t* ext_out_targets = nullptr;
  const uint64_t* ext_in_offsets = nullptr;
  const uint32_t* ext_in_targets = nullptr;

  // Offsets hold num_relations * num_nodes + 1 entries, targets num_edges.
  std::vector<uint64_t> out_offsets_store = {0};
  std::vector<uint32_t> out_targets_store;
  std::vector<uint64_t> in_offsets_store = {0};
  std::vector<uint32_t> in_targets_store;

  const uint64_t* out_offsets() const {
    return ext_out_offsets != nullptr ? ext_out_offsets
                                      : out_offsets_store.data();
  }
  const uint32_t* out_targets() const {
    return ext_out_targets != nullptr ? ext_out_targets
                                      : out_targets_store.data();
  }
  const uint64_t* in_offsets() const {
    return ext_in_offsets != nullptr ? ext_in_offsets
                                     : in_offsets_store.data();
  }
  const uint32_t* in_targets() const {
    return ext_in_targets != nullptr ? ext_in_targets
                                     : in_targets_store.data();
  }

  /// Targets of `node`'s out-edges labeled `relation`. Relations past the
  /// index (a query naming a relation absent from the graph) have no edges,
  /// hence the empty span above num_relations.
  std::span<const uint32_t> Out(int node, int relation) const {
    if (relation >= num_relations) return {};
    size_t row = static_cast<size_t>(relation) * num_nodes + node;
    const uint64_t* offsets = out_offsets();
    return {out_targets() + offsets[row],
            static_cast<size_t>(offsets[row + 1] - offsets[row])};
  }
  /// Sources of `node`'s in-edges labeled `relation` (the inverse direction,
  /// materialized — not recomputed by scanning out-edges).
  std::span<const uint32_t> In(int node, int relation) const {
    if (relation >= num_relations) return {};
    size_t row = static_cast<size_t>(relation) * num_nodes + node;
    const uint64_t* offsets = in_offsets();
    return {in_targets() + offsets[row],
            static_cast<size_t>(offsets[row + 1] - offsets[row])};
  }
};

/// Zero-copy description of a columnar snapshot's graph sections, produced by
/// graphdb/columnar.cc and consumed by GraphDb::FromColumnar. The node
/// dictionary pointers always alias `backing`; the CSR inside `csr` may be
/// external (identity relation mapping) or owned (remapped relation ids).
struct ColumnarGraphView {
  int num_nodes = 0;
  int64_t num_edges = 0;
  /// Node names concatenated in id order; name_offsets has num_nodes + 1
  /// entries bracketing each name's bytes.
  const char* name_blob = nullptr;
  const uint64_t* name_offsets = nullptr;
  /// Node ids permuted so names read in strictly increasing order — the
  /// sorted dictionary that replaces the interner's hash map on the read
  /// path (NodeId is a binary search).
  const uint32_t* nodes_by_name = nullptr;
  LabelCsr csr;
  std::shared_ptr<const void> backing;
};

/// A semistructured database (Section 2): a finite directed graph whose edges
/// are labeled with relation ids. Relation ids follow the convention of
/// SignedAlphabet (relation k owns Σ± symbols 2k and 2k+1), so a GraphDb and
/// the query automata over it are coordinated through one alphabet.
///
/// A GraphDb is immutable and always indexed: every reader sees its edges as
/// the per-(relation, direction) LabelCsr spans, which GraphBuilder::Build
/// counting-sorts in memory and a columnar snapshot (graphdb/columnar.h) maps
/// from its file. Node names live in an interner when built and in a sorted
/// dictionary view of the mapping when mapped. A default-constructed GraphDb
/// is the empty graph.
class GraphDb {
 public:
  GraphDb() = default;

  GraphDb(const GraphDb&) = default;
  GraphDb& operator=(const GraphDb&) = default;
  GraphDb(GraphDb&&) = default;
  GraphDb& operator=(GraphDb&&) = default;

  /// Adopts a columnar snapshot's sections as a database.
  static GraphDb FromColumnar(ColumnarGraphView view);

  /// Id of the named node, or -1.
  int NodeId(const std::string& name) const;
  std::string_view NodeName(int id) const {
    if (!columnar_) return nodes_.NameOf(id);
    RPQI_CHECK(0 <= id && id < num_nodes_);
    return {name_blob_ + name_offsets_[id],
            static_cast<size_t>(name_offsets_[id + 1] - name_offsets_[id])};
  }

  int NumNodes() const { return num_nodes_; }
  int64_t NumEdges() const { return num_edges_; }

  /// Binary search of `from`'s out-span for `relation`.
  bool HasEdge(int from, int relation, int to) const;

  /// Sorted targets of `node`'s out-edges labeled `relation`.
  std::span<const uint32_t> OutTargets(int node, int relation) const {
    return csr_.Out(node, relation);
  }
  /// Sorted sources of `node`'s in-edges labeled `relation`.
  std::span<const uint32_t> InTargets(int node, int relation) const {
    return csr_.In(node, relation);
  }
  const LabelCsr& label_csr() const { return csr_; }

 private:
  friend class GraphBuilder;

  int num_nodes_ = 0;
  int64_t num_edges_ = 0;

  // Node names of a built database.
  StringInterner nodes_;
  // Node names of a mapped database: dictionary views into backing_.
  bool columnar_ = false;
  const char* name_blob_ = nullptr;
  const uint64_t* name_offsets_ = nullptr;
  const uint32_t* nodes_by_name_ = nullptr;

  LabelCsr csr_;
  /// Keeps an mmapped snapshot alive for as long as any copy of this
  /// database aliases it.
  std::shared_ptr<const void> backing_;
};

/// Collects a database's nodes and edges, then builds its GraphDb. Nodes are
/// interned by name in id order; edges are kept as one flat list in
/// insertion order, a multigraph (a repeated edge is a second edge).
class GraphBuilder {
 public:
  struct Edge {
    int from;
    int relation;
    int to;
  };

  /// Returns the id of the named node, creating it if new.
  int AddNode(const std::string& name) { return nodes_.Intern(name); }

  /// Creates a fresh unnamed node (named "_anonN" internally).
  int AddAnonymousNode() {
    return AddNode("_anon" + std::to_string(NumNodes()));
  }

  void AddEdge(int from, int relation, int to) {
    RPQI_CHECK(0 <= from && from < NumNodes());
    RPQI_CHECK(0 <= to && to < NumNodes());
    RPQI_CHECK_GE(relation, 0);
    edges_.push_back({from, relation, to});
  }

  int NumNodes() const { return nodes_.size(); }

  /// The edges added so far, in insertion order.
  const std::vector<Edge>& edges() const { return edges_; }

  /// Counting-sorts the edges into the label index, covering relation ids
  /// [0, highest relation id + 1); spans of higher relations read as empty.
  /// Targets are sorted within each span.
  GraphDb Build() &&;

 private:
  StringInterner nodes_;
  std::vector<Edge> edges_;
};

}  // namespace rpqi

#endif  // RPQI_GRAPHDB_GRAPH_H_
