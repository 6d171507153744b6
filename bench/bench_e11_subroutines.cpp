// E11 — the subroutine complexities entering Lemma 18's decomposition:
// T_MM, T_{deg+1}, MIS, and ruling sets are (Delta^2 + log* n)-shaped in
// our realization (the paper's black boxes are O(Delta + log* n) /
// O~(log^{5/3} n); substitution documented in DESIGN.md). Rounds must be
// essentially flat in n and grow with Delta.
#include "bench_support/sweep.hpp"
#include "bench_support/table.hpp"
#include "bench_support/workloads.hpp"
#include "deltacolor.hpp"

namespace {

using namespace deltacolor;
using namespace deltacolor::bench;

// The subroutine columns, resolved by name from the shared algorithm
// registry (the same catalog `dcolor --list` prints).
constexpr const char* kSubroutines[] = {"linial", "greedy", "mis-det",
                                        "matching", "ruling"};
constexpr std::size_t kNumSubroutines = 5;

void run_tables() {
  banner("E11", "subroutine round complexities (flat in n, ~Delta^2)");

  // Every (instance, subroutine) pair is one sweep cell; the five columns
  // of a table row share the cached instance.
  struct Cell {
    int cliques;
    int delta;
    std::size_t subroutine;
  };
  std::vector<Cell> cells;
  for (int cliques = 32; cliques <= 1024; cliques *= 4)
    for (std::size_t s = 0; s < kNumSubroutines; ++s)
      cells.push_back({cliques, 16, s});
  const std::size_t delta_section = cells.size();
  for (const int delta : {8, 16, 32, 63})
    for (std::size_t s = 0; s < kNumSubroutines; ++s)
      cells.push_back({64, delta, s});

  struct Row {
    NodeId n = 0;
    std::int64_t rounds = 0;
  };
  SweepDriver driver;
  const auto rows = driver.run<Row>(
      cells.size(), [&](std::size_t i, CellContext& ctx) {
        const Cell& c = cells[i];
        const auto inst =
            cached_hard(c.cliques, c.delta, 3, &ctx.ledger());
        AlgorithmRequest req;
        req.engine = ctx.engine();
        Row row;
        row.n = inst->graph.num_nodes();
        row.rounds = run_registered(kSubroutines[c.subroutine], inst->graph,
                                    req)
                         .ledger.total();
        return row;
      });

  {
    Table t({"n", "linial", "deg+1", "mis", "matching", "ruling"});
    for (std::size_t at = 0; at < delta_section; at += kNumSubroutines)
      t.row(rows[at].n, rows[at].rounds, rows[at + 1].rounds,
            rows[at + 2].rounds, rows[at + 3].rounds, rows[at + 4].rounds);
    std::cout << "fixed Delta = 16, growing n:\n";
    t.print();
  }
  {
    Table t({"Delta", "n", "linial", "deg+1", "mis", "matching", "ruling"});
    for (std::size_t at = delta_section; at < cells.size();
         at += kNumSubroutines)
      t.row(cells[at].delta, rows[at].n, rows[at].rounds,
            rows[at + 1].rounds, rows[at + 2].rounds, rows[at + 3].rounds,
            rows[at + 4].rounds);
    std::cout << "\nfixed clique count, growing Delta:\n";
    t.print();
  }
  std::cout << driver.report() << "\n";
}

}  // namespace

int main() {
  run_tables();
  return 0;
}
