#include "hypergraph/hypergraph.h"

#include "common/string_util.h"

namespace mpqe {

size_t Hypergraph::AddEdge(std::string label, std::vector<int> vars) {
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  edges_.push_back(Hyperedge{std::move(label), std::move(vars)});
  return edges_.size() - 1;
}

std::string Hypergraph::ToString() const {
  return StrJoin(edges_, "; ", [](std::ostream& os, const Hyperedge& e) {
    os << e.label << "{" << StrJoin(e.vars, ",") << "}";
  });
}

}  // namespace mpqe
