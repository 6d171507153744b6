// E9 — Lemma 21 / Corollary 22: degree splitting into 2^i parts keeps each
// node's per-part degree within deg/2^i +- (eps * deg + a).
//
// Sweep the segment length (~1/eps') and the recursion depth i on random
// regular graphs; report the worst observed per-node discrepancy against
// the bound and the simulated rounds.
#include <cmath>

#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

void run_tables() {
  banner("E9", "Corollary 22: per-node degree discrepancy of the splitter");

  struct Cell {
    int degree;
    int levels;
    int segment;
  };
  std::vector<Cell> cells;
  for (const int degree : {16, 32, 64})
    for (const int levels : {1, 2, 3})
      for (const int segment : {16, 64, 100, 256})
        cells.push_back({degree, levels, segment});

  struct Row {
    int rounds = 0;
    double max_disc = 0;
  };
  SweepDriver driver;
  const auto rows = driver.run<Row>(
      cells.size(), [&](std::size_t i, CellContext& ctx) {
        const Cell& c = cells[i];
        const auto g =
            cached_regular(2048, c.degree, 7 + c.degree, &ctx.ledger());
        RoundLedger ledger;
        LocalContext lctx(ledger);
        const auto split = degree_split(*g, c.levels, c.segment, 3, lctx);
        Row row;
        row.rounds = split.rounds;
        for (int p = 0; p < split.num_parts; ++p) {
          const auto deg = part_degrees(*g, split, p);
          for (NodeId v = 0; v < g->num_nodes(); ++v)
            row.max_disc = std::max(
                row.max_disc,
                std::abs(deg[v] - static_cast<double>(c.degree) /
                                      split.num_parts));
        }
        return row;
      });

  Table t({"degree", "levels", "segment", "rounds", "maxDisc",
           "bound(eps*d+a)", "within"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const double bound =
        (2.0 * c.levels / c.segment) * c.degree + 3.0 * c.levels + 1;
    t.row(c.degree, c.levels, c.segment, rows[i].rounds, rows[i].max_disc,
          bound, verdict(rows[i].max_disc <= bound + 1e-9));
  }
  t.print();
  std::cout << "\n(The paper instantiates eps' = 1/100, i = 2 in Lemma 13;\n"
               "segment = 100, levels = 2 is that configuration.)\n";
  std::cout << driver.report() << "\n";
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
