// Frequency assignment in a dense backbone network.
//
// Scenario: access points packed into buildings form near-cliques in the
// interference graph (everyone in a building interferes with everyone
// else), plus one inter-building link per AP. The operator owns exactly
// Delta frequency channels — one FEWER than the greedy Delta+1 bound —
// so the assignment needs the paper's machinery, not plain greedy.
//
//   $ ./frequency_assignment [buildings] [aps_per_building]
#include <cstdlib>
#include <iostream>

#include "deltacolor.hpp"

int main(int argc, char** argv) {
  using namespace deltacolor;
  const int buildings = argc > 1 ? std::atoi(argv[1]) : 48;
  const int aps = argc > 2 ? std::atoi(argv[2]) : 16;

  CliqueInstanceOptions gen;
  gen.num_cliques = buildings;
  gen.delta = aps;        // intra-building (aps-1) + 1 uplink
  gen.clique_size = aps;
  gen.easy_fraction = 0.2;  // some buildings run one AP pair decoupled
  gen.seed = 7;
  const CliqueInstance instance = clique_blowup_instance(gen);
  const Graph& g = instance.graph;
  const int channels = g.max_degree();

  std::cout << "interference graph: " << g.num_nodes() << " access points, "
            << g.num_edges() << " interference pairs, degree " << channels
            << "\n";

  // The greedy baseline needs Delta+1 channels.
  RoundLedger greedy_ledger;
  LocalContext greedy_ctx(greedy_ledger);
  const auto greedy = greedy_delta_plus_one(g, greedy_ctx);
  const auto greedy_report = check_coloring(g, greedy);
  std::cout << "greedy baseline: " << greedy_report.colors_used
            << " channels (palette " << channels + 1 << "), "
            << greedy_ledger.total() << " rounds\n";

  // The paper's algorithm fits into exactly Delta channels.
  const auto result = delta_color_dense(g, scaled_options(aps));
  const auto report = check_coloring(g, result.color);
  std::cout << "delta-coloring:  " << report.colors_used
            << " channels (palette " << channels << "), "
            << result.ledger.total() << " rounds\n";
  std::cout << "  hard buildings: " << result.num_hard
            << ", easy buildings: " << result.num_easy
            << ", slack triads placed: " << result.hard_stats.num_triads
            << "\n";

  if (!is_delta_coloring(g, result.color)) {
    std::cerr << "assignment INVALID\n";
    return 1;
  }
  // Channel-usage histogram.
  std::vector<int> usage(static_cast<std::size_t>(channels), 0);
  for (const Color c : result.color) ++usage[static_cast<std::size_t>(c)];
  int min_use = usage[0], max_use = usage[0];
  for (const int u : usage) {
    min_use = std::min(min_use, u);
    max_use = std::max(max_use, u);
  }
  std::cout << "channel reuse: " << min_use << ".." << max_use
            << " APs per channel; the spectrum saving over greedy is one "
               "full channel\n";
  return 0;
}
