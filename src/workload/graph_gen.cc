#include "workload/graph_gen.h"

namespace rpqi {

GraphBuilder RandomGraph(std::mt19937_64& rng,
                         const RandomGraphOptions& options) {
  GraphBuilder db;
  for (int i = 0; i < options.num_nodes; ++i) {
    db.AddNode("n" + std::to_string(i));
  }
  std::uniform_int_distribution<int> pick_node(0, options.num_nodes - 1);
  std::uniform_int_distribution<int> pick_relation(0,
                                                   options.num_relations - 1);
  int num_edges = static_cast<int>(options.average_out_degree *
                                   options.num_nodes);
  for (int i = 0; i < num_edges; ++i) {
    db.AddEdge(pick_node(rng), pick_relation(rng), pick_node(rng));
  }
  return db;
}

GraphBuilder ChainGraph(std::mt19937_64& rng, int num_nodes,
                        int num_relations) {
  GraphBuilder db;
  for (int i = 0; i < num_nodes; ++i) {
    db.AddNode("n" + std::to_string(i));
  }
  std::uniform_int_distribution<int> pick_relation(0, num_relations - 1);
  for (int i = 0; i + 1 < num_nodes; ++i) {
    db.AddEdge(i, pick_relation(rng), i + 1);
  }
  return db;
}

GraphBuilder RandomTree(std::mt19937_64& rng, int num_nodes,
                        int num_relations) {
  GraphBuilder db;
  for (int i = 0; i < num_nodes; ++i) {
    db.AddNode("n" + std::to_string(i));
  }
  std::uniform_int_distribution<int> pick_relation(0, num_relations - 1);
  for (int i = 1; i < num_nodes; ++i) {
    std::uniform_int_distribution<int> pick_parent(0, i - 1);
    db.AddEdge(pick_parent(rng), pick_relation(rng), i);
  }
  return db;
}

}  // namespace rpqi
