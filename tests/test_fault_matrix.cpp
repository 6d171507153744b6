// The fault matrix: every FaultCategory is injected through the
// FaultInjector's probe sites and must come out the other side of the
// SweepDriver caught, categorized, retried or quarantined — without
// disturbing any other cell's row. Also pins the determinism contract:
// under injected faults, rows and merged ledgers are identical between a
// serial and a parallel sweep (fault coordinates are (cell, attempt)
// addressed, never schedule-addressed).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support/sweep.hpp"
#include "bench_support/workloads.hpp"
#include "common/errors.hpp"
#include "core/delta_coloring.hpp"
#include "graph/generators.hpp"
#include "local/context.hpp"
#include "local/faults.hpp"
#include "registry/registry.hpp"

namespace deltacolor::bench {
namespace {

/// Arms `plan` for the scope of one test and disarms on exit, so the
/// process-wide injector never leaks into other tests.
class ArmedScope {
 public:
  explicit ArmedScope(std::vector<FaultSpec> plan, std::uint64_t seed = 1) {
    FaultInjector::global().arm(std::move(plan), seed);
  }
  ~ArmedScope() { FaultInjector::global().disarm(); }
};

FaultSpec spec_of(std::string_view text) {
  FaultSpec spec;
  EXPECT_TRUE(parse_fault_spec(text, &spec)) << text;
  return spec;
}

/// A small deterministic cell: charges `10 + i` rounds to "work" through a
/// LocalContext (so the phase-charge probe site runs) and returns i*i.
int run_work_cell(std::size_t i, CellContext& ctx) {
  LocalContext local(ctx.ledger(), ctx.engine());
  DefaultPhase phase(local, "work");
  local.charge(static_cast<std::int64_t>(10 + i));
  return static_cast<int>(i * i);
}

TEST(FaultSpecGrammar, ParsesCoordinatesAndPayloads) {
  const FaultSpec s = spec_of(
      "engine-exception@cell=3,round=7,phase=work,attempts=2");
  EXPECT_EQ(s.category, FaultCategory::kEngineException);
  EXPECT_EQ(s.cell, 3);
  EXPECT_EQ(s.round, 7);
  EXPECT_EQ(s.phase, "work");
  EXPECT_EQ(s.attempts, 2);

  FaultSpec out;
  EXPECT_FALSE(parse_fault_spec("no-such-category@cell=0", &out));
  EXPECT_FALSE(parse_fault_spec("engine-exception@bogus=1", &out));
  EXPECT_FALSE(parse_fault_spec("engine-exception@cell=", &out));
}

TEST(FaultGrammar, ParsesEveryKeyAndCategory) {
  FaultSpec spec;
  std::string error;
  ASSERT_TRUE(parse_fault_spec(
      "invariant-violation@cell=3,round=2,node=5,phase=p,attempts=4", &spec,
      &error))
      << error;
  EXPECT_EQ(spec.category, FaultCategory::kInvariantViolation);
  EXPECT_EQ(spec.cell, 3);
  EXPECT_EQ(spec.round, 2);
  EXPECT_EQ(spec.node, 5);
  EXPECT_EQ(spec.phase, "p");
  EXPECT_EQ(spec.attempts, 4);
  for (const char* category :
       {"invariant-violation", "engine-exception", "process-kill"}) {
    ASSERT_TRUE(parse_fault_spec(std::string(category) + "@cell=1", &spec,
                                 &error))
        << category << ": " << error;
    EXPECT_EQ(to_string(spec.category), category);
  }
}

// Round budgets, deadlines and arena limits were retired with their
// categories and payload keys: a spec naming them must fail to parse, not
// arm a fault no site can fire.
TEST(FaultGrammar, RetiredCategoriesAreUnknown) {
  FaultSpec spec;
  for (const char* text :
       {"round-budget-exceeded@cell=1", "wall-clock-timeout@cell=1",
        "allocation-limit@cell=1"}) {
    std::string error;
    EXPECT_FALSE(parse_fault_spec(text, &spec, &error)) << text;
    EXPECT_NE(error.find("unknown fault category"), std::string::npos)
        << text << ": " << error;
  }
  for (const char* text :
       {"engine-exception@extra_rounds=5", "engine-exception@sleep_ms=1"}) {
    std::string error;
    EXPECT_FALSE(parse_fault_spec(text, &spec, &error)) << text;
    EXPECT_NE(error.find("unknown fault key"), std::string::npos)
        << text << ": " << error;
  }
}

TEST(FaultGrammar, UnknownCategoryGetsADidYouMean) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("process-kil@cell=1", &spec, &error));
  EXPECT_NE(error.find("process-kill"), std::string::npos) << error;
  error.clear();
  EXPECT_FALSE(parse_fault_spec("engine-exceptoin@round=1", &spec, &error));
  EXPECT_NE(error.find("engine-exception"), std::string::npos) << error;
}

TEST(FaultGrammar, UnknownKeyGetsADidYouMean) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("engine-exception@rond=1", &spec, &error));
  EXPECT_NE(error.find("round"), std::string::npos) << error;
}

TEST(FaultGrammar, MalformedPairsAndValuesAreRejected) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("engine-exception@round", &spec, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_fault_spec("engine-exception@round=abc", &spec, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(parse_fault_spec("", &spec, &error));
  EXPECT_FALSE(error.empty());
}

// process-kill fires only at cell start, which never matches a round
// coordinate: a round= spec would arm and silently never fire.
TEST(FaultGrammar, ProcessKillRejectsARoundCoordinate) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(parse_fault_spec("process-kill@round=3", &spec, &error));
  EXPECT_NE(error.find("process-kill"), std::string::npos) << error;
  EXPECT_NE(error.find("did you mean 'cell'"), std::string::npos) << error;
  EXPECT_TRUE(parse_fault_spec("process-kill@cell=3", &spec, &error))
      << error;
}

TEST(FaultGrammar, ShardKeyIsUnknown) {
  FaultSpec spec;
  std::string error;
  EXPECT_FALSE(
      parse_fault_spec("engine-exception@round=1,shard=0", &spec, &error));
  EXPECT_NE(error.find("unknown fault key 'shard'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("did you mean"), std::string::npos) << error;
}

TEST(FaultMatrix, PhaseFaultReachesPipelinePhases) {
  // Algorithm 2's own phases charge through LocalContext, so a
  // phase-addressed engine exception fires at phase2-split, the virtual
  // G_Q splitting run, and not only at a primitive's default label.
  ArmedScope armed({spec_of("engine-exception@phase=phase2-split")});
  const CliqueInstance inst = hard_instance(16, 16, 3);
  try {
    delta_color_dense(inst.graph, scaled_options(16));
    FAIL() << "the run completed without the injected fault";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("phase2-split"), std::string::npos)
        << e.what();
  }
}

TEST(FaultMatrix, EngineExceptionIsCaughtAndQuarantined) {
  ArmedScope armed({spec_of("engine-exception@cell=2,attempts=0")});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 2;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(5, run_work_cell);
  ASSERT_EQ(result.outcomes.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    if (i == 2) continue;
    EXPECT_EQ(result.outcomes[i].status, CellStatus::kOk);
    EXPECT_EQ(result.rows[i], static_cast<int>(i * i))
        << "other cells keep their rows";
  }
  const CellOutcome& oc = result.outcomes[2];
  EXPECT_EQ(oc.status, CellStatus::kQuarantined);
  EXPECT_EQ(oc.attempts, 2);
  EXPECT_EQ(oc.category, FaultCategory::kEngineException);
  EXPECT_NE(oc.error.find("injected engine exception"), std::string::npos);
  EXPECT_EQ(result.rows[2], 0) << "quarantined cell keeps the default row";
  EXPECT_FALSE(result.all_ok());
  EXPECT_EQ(result.quarantined(), 1u);
}

TEST(FaultMatrix, TransientFaultRetriesThenSucceeds) {
  // attempts=1 (the default): the fault fires on attempt 0 only, so the
  // retry — which runs under attempt 1 — succeeds.
  ArmedScope armed({spec_of("engine-exception@cell=1")});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 3;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(3, run_work_cell);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kRetried);
  EXPECT_EQ(result.outcomes[1].attempts, 2);
  EXPECT_EQ(result.rows[1], 1) << "the retried attempt's row is kept";
  EXPECT_TRUE(result.all_ok());
  // The re-run coordination was charged: one "retry" round in the ledger.
  EXPECT_EQ(driver.ledger().phase_total("retry"), 1);
}

TEST(FaultMatrix, NotDenseCellIsNotRetried) {
  // A not-dense input fails under every seed: the cell ends on its first
  // attempt, charges no "retry" round, and is quarantined as not-dense.
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.max_attempts = 3;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result =
      driver.run_cells<int>(2, [](std::size_t i, CellContext& ctx) {
        if (i == 0)
          throw CellError(FaultCategory::kNotDense,
                          "input graph is not dense");
        return run_work_cell(i, ctx);
      });
  const CellOutcome& oc = result.outcomes[0];
  EXPECT_EQ(oc.status, CellStatus::kQuarantined);
  EXPECT_EQ(oc.attempts, 1);
  EXPECT_EQ(to_string(oc.category), "not-dense");
  EXPECT_EQ(driver.ledger().phase_total("retry"), 0);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kOk);
  EXPECT_EQ(result.rows[1], 1);
}

TEST(FaultMatrix, CorruptedColoringIsCaughtByThePhaseOracle) {
  // Corrupt the partial coloring at the det pipeline's "easy" oracle site;
  // --validate=phase must turn it into a structured invariant violation.
  ArmedScope armed(
      {spec_of("invariant-violation@cell=0,attempts=0,phase=easy")});
  const CliqueInstance inst = clique_blowup_instance(
      {.num_cliques = 8, .delta = 8, .clique_size = 8, .seed = 11});
  SweepOptions opt;
  opt.workers = 1;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(
      2, [&](std::size_t /*i*/, CellContext& ctx) {
        AlgorithmRequest req;
        req.seed = 7;
        req.engine = ctx.engine();
        req.validate = ValidateMode::kPhase;
        const AlgorithmResult res = run_registered("det", inst.graph, req);
        return res.ok ? 1 : 0;
      });
  EXPECT_EQ(result.outcomes[0].status, CellStatus::kQuarantined);
  EXPECT_EQ(result.outcomes[0].category,
            FaultCategory::kInvariantViolation);
  EXPECT_NE(result.outcomes[0].error.find("monochromatic"),
            std::string::npos);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::kOk)
      << "the same pipeline, uncorrupted, passes the phase oracle";
  EXPECT_EQ(result.rows[1], 1);
}

TEST(FaultMatrix, ConcurrentFailuresKeepEveryOtherRow) {
  ArmedScope armed({spec_of("engine-exception@cell=3,attempts=0"),
                    spec_of("engine-exception@cell=11,attempts=0")});
  SweepOptions opt;
  opt.workers = 4;
  opt.retry.max_attempts = 2;
  opt.retry.quarantine = true;
  SweepDriver driver(opt);
  const auto result = driver.run_cells<int>(16, run_work_cell);
  EXPECT_EQ(result.quarantined(), 2u);
  for (std::size_t i = 0; i < 16; ++i) {
    if (i == 3 || i == 11) {
      EXPECT_EQ(result.outcomes[i].status, CellStatus::kQuarantined) << i;
    } else {
      EXPECT_EQ(result.outcomes[i].status, CellStatus::kOk) << i;
      EXPECT_EQ(result.rows[i], static_cast<int>(i * i)) << i;
    }
  }
}

TEST(FaultMatrix, SerialAndParallelAgreeUnderInjectedFaults) {
  const std::vector<FaultSpec> plan = {
      spec_of("engine-exception@cell=2"),  // transient: retried
      spec_of("engine-exception@cell=5,attempts=0"),  // hard: quarantined
  };
  struct Run {
    SweepResult<int> result;
    std::int64_t work_rounds = 0;
    std::int64_t retry_rounds = 0;
  };
  const auto sweep = [&](int workers) {
    ArmedScope armed(plan, 99);
    SweepOptions opt;
    opt.workers = workers;
    opt.retry.max_attempts = 3;
    opt.retry.quarantine = true;
    SweepDriver driver(opt);
    Run run;
    run.result = driver.run_cells<int>(12, run_work_cell);
    run.work_rounds = driver.ledger().phase_total("work");
    run.retry_rounds = driver.ledger().phase_total("retry");
    return run;
  };
  const Run serial = sweep(1);
  const Run parallel = sweep(4);
  ASSERT_EQ(serial.result.rows.size(), parallel.result.rows.size());
  for (std::size_t i = 0; i < serial.result.rows.size(); ++i) {
    EXPECT_EQ(serial.result.rows[i], parallel.result.rows[i]) << i;
    EXPECT_EQ(serial.result.outcomes[i].status,
              parallel.result.outcomes[i].status)
        << i;
    EXPECT_EQ(serial.result.outcomes[i].attempts,
              parallel.result.outcomes[i].attempts)
        << i;
  }
  // Round counts (not wall-clock) must match exactly across schedules.
  EXPECT_EQ(serial.work_rounds, parallel.work_rounds);
  EXPECT_EQ(serial.retry_rounds, parallel.retry_rounds);
  EXPECT_EQ(serial.result.quarantined(), 1u);
}

TEST(FaultMatrix, LegacyRethrowStillPropagatesLowestIndex) {
  // Default policy + faults on two cells: the legacy all-or-nothing
  // contract applies, and the lowest cell index's error wins.
  // Distinct probe sites so the messages identify which cell's error won:
  // cell 1 throws at cell start, cell 4 at its "work" phase charge.
  ArmedScope armed({spec_of("engine-exception@cell=1,attempts=0"),
                    spec_of("engine-exception@cell=4,phase=work,attempts=0")});
  SweepOptions opt;
  opt.workers = 4;
  SweepDriver driver(opt);
  try {
    (void)driver.run<int>(8, run_work_cell);
    FAIL() << "expected the injected exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cell start"), std::string::npos)
        << "lowest cell index's exception must win, got: " << e.what();
  }
}

TEST(FaultMatrix, DisarmedInjectorChargesNothing) {
  FaultInjector::global().disarm();
  EXPECT_FALSE(FaultInjector::armed());
  SweepDriver driver;
  const auto rows = driver.run<int>(4, run_work_cell);
  ASSERT_EQ(rows.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(rows[i], static_cast<int>(i * i));
  EXPECT_EQ(driver.ledger().phase_total("retry"), 0);
}

}  // namespace
}  // namespace deltacolor::bench
