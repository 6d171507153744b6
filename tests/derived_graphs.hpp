// Eager derived-graph builders kept as test oracles: the lazy
// PowerGraphView and LineGraphView (graph/graph_view.hpp) must enumerate
// exactly the adjacency these materialize. Library code uses the views.
#pragma once

#include "graph/graph.hpp"

namespace deltacolor {

/// Power graph G^r: same nodes, edge between u != v iff dist_G(u, v) <= r.
/// Intended for small r on bounded-degree graphs.
Graph power_graph(const Graph& g, int r);

/// The line graph L(G): one node per edge of g, adjacency iff the edges
/// share an endpoint. Node i of the line graph corresponds to EdgeId i.
/// Identifiers are derived from endpoint identifiers (unique per edge).
Graph line_graph(const Graph& g);

}  // namespace deltacolor
