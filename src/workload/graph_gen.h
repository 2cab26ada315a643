#ifndef RPQI_WORKLOAD_GRAPH_GEN_H_
#define RPQI_WORKLOAD_GRAPH_GEN_H_

#include <random>

#include "graphdb/graph.h"

namespace rpqi {

/// Options for random database generation. All generators are deterministic
/// given the RNG state; relations are ids [0, num_relations). Each generator
/// returns the GraphBuilder it filled: Build() gives the database, and
/// edges() the list it was built from.
struct RandomGraphOptions {
  int num_nodes = 10;
  int num_relations = 2;
  /// Expected out-degree per node (edges drawn uniformly).
  double average_out_degree = 2.0;
};

/// Uniform random multigraph ("Erdős–Rényi-style" over labeled edges).
GraphBuilder RandomGraph(std::mt19937_64& rng,
                         const RandomGraphOptions& options);

/// A simple chain n0 -r0-> n1 -r1-> … with uniformly random relations; the
/// line databases on which word-satisfaction semantics is easiest to audit.
GraphBuilder ChainGraph(std::mt19937_64& rng, int num_nodes,
                        int num_relations);

/// A random rooted tree with edges pointing away from the root — matches the
/// paper's Example 1 shape when num_relations = 1 (hasSubmodule).
GraphBuilder RandomTree(std::mt19937_64& rng, int num_nodes,
                        int num_relations);

}  // namespace rpqi

#endif  // RPQI_WORKLOAD_GRAPH_GEN_H_
