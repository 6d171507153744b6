// E6 — Theorem 2: the randomized algorithm Delta-colors dense
// constant-degree graphs in O(Delta + log log n) rounds w.h.p.; the
// shattered components have size poly(Delta) * log n.
//
// Sweep n at fixed Delta; report total rounds, the post-shattering
// component statistics, and the (weak at laptop scale) log log n shape of
// the n-dependent part.
#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "common/stats.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E6",
         "Theorem 2: randomized Delta-coloring; shattering into "
         "poly(Delta) log n components");
  std::vector<int> clique_grid;
  for (int cliques = 32; cliques <= 2048; cliques *= 2)
    clique_grid.push_back(cliques);

  struct Row {
    NodeId n = 0;
    bool valid = false;
    std::int64_t tnodes = 0;
    std::int64_t failed = 0;
    std::int64_t components = 0;
    std::int64_t max_comp_vertices = 0;
    std::int64_t max_comp_rounds = 0;
    RoundLedger ledger;
  };
  SweepDriver driver;
  const auto rows = driver.run<Row>(
      clique_grid.size(),
      [&](std::size_t i, CellContext& ctx) {
        const int cliques = clique_grid[i];
        const auto inst = cached_hard(cliques, 16, 21, &ctx.ledger());
        auto opt = scaled_randomized_options(16, 1000 + cliques);
        opt.engine = ctx.engine();
        const auto res = randomized_delta_color(inst->graph, opt);
        Row row;
        row.n = inst->graph.num_nodes();
        row.valid = res.valid;
        row.tnodes = res.stats.tnodes_placed;
        row.failed = res.stats.failed_cliques;
        row.components = res.stats.components;
        row.max_comp_vertices = res.stats.max_component_vertices;
        row.max_comp_rounds = res.stats.max_component_rounds;
        row.ledger = res.ledger;
        return row;
      });

  Table t({"n", "rounds", "tnodes", "failed", "components", "maxCompSize",
           "maxCompRounds", "valid"});
  std::vector<double> ns, comp_sizes;
  for (const Row& row : rows) {
    BenchJson("E6")
        .field("n", row.n)
        .field("valid", row.valid)
        .ledger(row.ledger)
        .print();
    t.row(row.n, row.ledger.total(), row.tnodes, row.failed, row.components,
          row.max_comp_vertices, row.max_comp_rounds,
          row.valid ? "yes" : "NO");
    ns.push_back(row.n);
    comp_sizes.push_back(static_cast<double>(row.max_comp_vertices));
  }
  t.print();
  const LinearFit fit = fit_log(ns, comp_sizes);
  std::cout << "fit maxCompSize ~ " << fit.intercept << " + " << fit.slope
            << " * log2(n)   (r2 = " << fit.r2
            << ") — the shattering lemma's poly(Delta) log n shape\n\n";

  // At the default coverage depth the layers absorb everything; shrinking
  // the depth exposes the actual shattered components and their
  // log-n-bounded growth.
  std::cout << "coverage-depth sweep (the default depth 3 usually covers "
               "the whole graph):\n";
  struct DepthCell {
    int depth;
    int cliques;
  };
  std::vector<DepthCell> depth_cells;
  for (const int depth : {1, 2, 3})
    for (const int cliques : {128, 512, 2048})
      depth_cells.push_back({depth, cliques});
  struct DepthRow {
    NodeId n = 0;
    RandomizedResult res;
  };
  SweepDriver depth_driver;
  const auto depth_rows = depth_driver.run<DepthRow>(
      depth_cells.size(), [&](std::size_t i, CellContext& ctx) {
        const DepthCell& c = depth_cells[i];
        const auto inst = cached_hard(c.cliques, 16, 21, &ctx.ledger());
        RandomizedOptions opt = scaled_randomized_options(16, 777);
        opt.layer_depth = c.depth;
        opt.placement_rounds = 2;  // weaker placement: more failures
        opt.engine = ctx.engine();
        DepthRow row;
        row.res = randomized_delta_color(inst->graph, opt);
        row.n = inst->graph.num_nodes();
        return row;
      });
  Table t2({"layer_depth", "n", "components", "maxCompSize",
            "maxCompRounds", "valid"});
  for (std::size_t i = 0; i < depth_cells.size(); ++i) {
    const auto& res = depth_rows[i].res;
    t2.row(depth_cells[i].depth, depth_rows[i].n, res.stats.components,
           res.stats.max_component_vertices, res.stats.max_component_rounds,
           res.valid ? "yes" : "NO");
  }
  t2.print();
  std::cout << driver.report() << "\n";
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
