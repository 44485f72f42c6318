// Hypergraphs over rule variables (§4.1): "a generalization of a graph
// in which hyperedges are arbitrary sets of nodes instead of just
// pairs of nodes". Hyperedges carry labels so qual trees can name the
// rule head and subgoals they came from.

#ifndef MPQE_HYPERGRAPH_HYPERGRAPH_H_
#define MPQE_HYPERGRAPH_HYPERGRAPH_H_

#include <algorithm>
#include <string>
#include <vector>

namespace mpqe {

// One hyperedge: a named set of variables (stored sorted, unique).
struct Hyperedge {
  std::string label;
  std::vector<int> vars;

  bool Contains(int v) const {
    return std::binary_search(vars.begin(), vars.end(), v);
  }
  /// True iff this edge's variable set is a subset of `other`'s.
  bool SubsetOf(const Hyperedge& other) const {
    return std::includes(other.vars.begin(), other.vars.end(), vars.begin(),
                         vars.end());
  }
};

class Hypergraph {
 public:
  /// Adds a hyperedge over `vars` (deduplicated and sorted internally);
  /// returns its index. Empty edges are allowed (e.g. a head with no
  /// bound variables).
  size_t AddEdge(std::string label, std::vector<int> vars);

  size_t edge_count() const { return edges_.size(); }
  const Hyperedge& edge(size_t i) const { return edges_[i]; }
  const std::vector<Hyperedge>& edges() const { return edges_; }

  std::string ToString() const;

 private:
  std::vector<Hyperedge> edges_;
};

}  // namespace mpqe

#endif  // MPQE_HYPERGRAPH_HYPERGRAPH_H_
