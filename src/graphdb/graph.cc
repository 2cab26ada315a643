#include "graphdb/graph.h"

#include <algorithm>
#include <utility>

namespace rpqi {

GraphDb GraphDb::FromColumnar(ColumnarGraphView view) {
  GraphDb db;
  db.columnar_ = true;
  db.num_nodes_ = view.num_nodes;
  db.num_edges_ = view.num_edges;
  db.name_blob_ = view.name_blob;
  db.name_offsets_ = view.name_offsets;
  db.nodes_by_name_ = view.nodes_by_name;
  db.csr_ = std::move(view.csr);
  db.backing_ = std::move(view.backing);
  RPQI_CHECK(db.csr_.num_nodes == db.num_nodes_);
  return db;
}

int GraphDb::NodeId(const std::string& name) const {
  if (!columnar_) return nodes_.Find(name);
  // The dictionary is sorted by name (a validated invariant of the columnar
  // format), so lookup is a binary search over the id permutation.
  std::string_view target(name);
  const uint32_t* begin = nodes_by_name_;
  const uint32_t* end = nodes_by_name_ + num_nodes_;
  const uint32_t* it =
      std::lower_bound(begin, end, target, [this](uint32_t id,
                                                  std::string_view key) {
        return NodeName(static_cast<int>(id)) < key;
      });
  if (it == end || NodeName(static_cast<int>(*it)) != target) return -1;
  return static_cast<int>(*it);
}

bool GraphDb::HasEdge(int from, int relation, int to) const {
  std::span<const uint32_t> targets = csr_.Out(from, relation);
  return std::binary_search(targets.begin(), targets.end(),
                            static_cast<uint32_t>(to));
}

GraphDb GraphBuilder::Build() && {
  int relations = 0;
  for (const Edge& e : edges_) relations = std::max(relations, e.relation + 1);
  const int n = NumNodes();
  const size_t rows = static_cast<size_t>(relations) * n;
  GraphDb db;
  LabelCsr& csr = db.csr_;
  csr.num_nodes = n;
  csr.num_relations = relations;
  csr.out_offsets_store.assign(rows + 1, 0);
  csr.in_offsets_store.assign(rows + 1, 0);
  // Counting pass: offsets[row + 1] accumulates the span length, so the
  // prefix sum below turns the array into span starts in place.
  for (const Edge& e : edges_) {
    const size_t base = static_cast<size_t>(e.relation) * n;
    ++csr.out_offsets_store[base + e.from + 1];
    ++csr.in_offsets_store[base + e.to + 1];
  }
  for (size_t row = 0; row < rows; ++row) {
    csr.out_offsets_store[row + 1] += csr.out_offsets_store[row];
    csr.in_offsets_store[row + 1] += csr.in_offsets_store[row];
  }
  csr.out_targets_store.resize(edges_.size());
  csr.in_targets_store.resize(edges_.size());
  std::vector<uint64_t> out_cursor(csr.out_offsets_store.begin(),
                                   csr.out_offsets_store.end() - 1);
  std::vector<uint64_t> in_cursor(csr.in_offsets_store.begin(),
                                  csr.in_offsets_store.end() - 1);
  for (const Edge& e : edges_) {
    const size_t base = static_cast<size_t>(e.relation) * n;
    csr.out_targets_store[out_cursor[base + e.from]++] =
        static_cast<uint32_t>(e.to);
    csr.in_targets_store[in_cursor[base + e.to]++] =
        static_cast<uint32_t>(e.from);
  }
  // Sort within each span: the on-disk format requires it, HasEdge binary
  // searches it, and the validator checks it.
  for (size_t row = 0; row < rows; ++row) {
    std::sort(csr.out_targets_store.begin() + csr.out_offsets_store[row],
              csr.out_targets_store.begin() + csr.out_offsets_store[row + 1]);
    std::sort(csr.in_targets_store.begin() + csr.in_offsets_store[row],
              csr.in_targets_store.begin() + csr.in_offsets_store[row + 1]);
  }
  db.num_nodes_ = n;
  db.num_edges_ = static_cast<int64_t>(edges_.size());
  db.nodes_ = std::move(nodes_);
  return db;
}

}  // namespace rpqi
