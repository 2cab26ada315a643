#include "graphdb/views.h"

#include <utility>

#include "graphdb/eval.h"

namespace rpqi {

std::vector<std::pair<int, int>> MaterializeView(const GraphDb& db,
                                                 const Nfa& definition) {
  return EvalRpqiAllPairs(db, CompileEvalPlan(definition));
}

GraphDb BuildViewGraph(
    int num_objects,
    const std::vector<std::vector<std::pair<int, int>>>& extensions) {
  GraphBuilder graph;
  for (int i = 0; i < num_objects; ++i) {
    graph.AddNode("obj" + std::to_string(i));
  }
  for (size_t view = 0; view < extensions.size(); ++view) {
    for (const auto& [a, b] : extensions[view]) {
      graph.AddEdge(a, static_cast<int>(view), b);
    }
  }
  return std::move(graph).Build();
}

}  // namespace rpqi
