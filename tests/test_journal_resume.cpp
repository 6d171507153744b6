// Checkpoint/resume layer: the JSONL SweepJournal (escape/parse
// round-trips, torn-line tolerance) and the SweepDriver's resume
// semantics — completed
// cells are served from the journal, quarantined cells re-run, and a
// resumed sweep's table is identical to an uninterrupted one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_support/journal.hpp"
#include "bench_support/sweep.hpp"

namespace deltacolor::bench {
namespace {

/// Unique-ish temp path per test; removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_(std::string(::testing::TempDir().empty()
                              ? "/tmp/"
                              : ::testing::TempDir()) +
              "dc_journal_" + tag + ".jsonl") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(SweepJournal, LineRoundTripsThroughEscaping) {
  JournalEntry entry;
  entry.key = "blowup/t=8\"quoted\"/alg=det/seed=3";
  entry.status = CellStatus::kRetried;
  entry.attempts = 2;
  entry.error = "line\nbreak\tand\\slash";
  entry.payload = std::string("a\x1f") + "b\x1f" + "1.5";
  const std::string line = SweepJournal::format_line(entry);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "journal lines must be single-line";
  JournalEntry back;
  ASSERT_TRUE(SweepJournal::parse_line(line, &back)) << line;
  EXPECT_EQ(back.key, entry.key);
  EXPECT_EQ(back.status, entry.status);
  EXPECT_EQ(back.attempts, entry.attempts);
  EXPECT_EQ(back.error, entry.error);
  EXPECT_EQ(back.payload, entry.payload);
}

TEST(SweepJournal, ParseRejectsGarbageAndTornLines) {
  JournalEntry out;
  EXPECT_FALSE(SweepJournal::parse_line("", &out));
  EXPECT_FALSE(SweepJournal::parse_line("not json at all", &out));
  // A line cut mid-write (process killed while flushing).
  JournalEntry entry;
  entry.key = "k";
  entry.status = CellStatus::kOk;
  const std::string line = SweepJournal::format_line(entry);
  EXPECT_FALSE(
      SweepJournal::parse_line(line.substr(0, line.size() / 2), &out));
}

TEST(SweepJournal, ResumeLoadsRecordsAndSkipsTornTail) {
  TempFile tmp("resume_load");
  {
    SweepJournal journal(tmp.path(), /*resume=*/false);
    JournalEntry a;
    a.key = "cell/0";
    a.status = CellStatus::kOk;
    a.payload = "42";
    journal.record(a);
    JournalEntry b;
    b.key = "cell/1";
    b.status = CellStatus::kQuarantined;
    b.attempts = 3;
    b.category = "engine-exception";
    b.error = "boom";
    journal.record(b);
  }
  {
    // Simulate a SIGKILL mid-write: append half a line.
    std::ofstream torn(tmp.path(), std::ios::app);
    torn << "{\"key\":\"cell/2\",\"status\":\"o";
  }
  SweepJournal journal(tmp.path(), /*resume=*/true);
  EXPECT_TRUE(journal.resuming());
  EXPECT_EQ(journal.loaded(), 2u);
  const JournalEntry* a = journal.lookup("cell/0");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->status, CellStatus::kOk);
  EXPECT_EQ(a->payload, "42");
  const JournalEntry* b = journal.lookup("cell/1");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->status, CellStatus::kQuarantined);
  EXPECT_EQ(b->error, "boom");
  EXPECT_EQ(journal.lookup("cell/2"), nullptr) << "torn line is dropped";
}

/// Cell function counting actual executions, so resume tests can prove
/// which cells were served from the journal.
struct CountingCells {
  std::atomic<int> executions{0};
  int operator()(std::size_t i, CellContext& ctx) {
    executions.fetch_add(1);
    ctx.ledger().charge("work", 1);
    return static_cast<int>(100 + i);
  }
};

CellCodec<int> int_codec() {
  return CellCodec<int>{
      [](const int& row) { return std::to_string(row); },
      [](std::string_view text, int* row) {
        char* rest = nullptr;
        const std::string buf(text);
        *row = static_cast<int>(std::strtol(buf.c_str(), &rest, 10));
        return rest != nullptr && *rest == '\0';
      }};
}

std::string cell_key(std::size_t i) {
  return "resume-test/cell=" + std::to_string(i);
}

TEST(SweepResume, CompletedCellsAreServedFromTheJournal) {
  TempFile tmp("served");
  const auto codec = int_codec();
  // First run: all six cells execute and are journaled.
  {
    SweepOptions opt;
    opt.workers = 1;
    opt.journal = std::make_shared<SweepJournal>(tmp.path(), false);
    SweepDriver driver(opt);
    CountingCells cells;
    const auto result = driver.run_cells<int>(
        6, [&](std::size_t i, CellContext& ctx) { return cells(i, ctx); },
        cell_key, &codec);
    EXPECT_EQ(cells.executions.load(), 6);
    EXPECT_TRUE(result.all_ok());
  }
  // Resumed run: zero executions, identical rows, outcomes marked
  // resumed, and the driver report says so.
  SweepOptions opt;
  opt.workers = 1;
  opt.journal = std::make_shared<SweepJournal>(tmp.path(), true);
  SweepDriver driver(opt);
  CountingCells cells;
  const auto result = driver.run_cells<int>(
      6, [&](std::size_t i, CellContext& ctx) { return cells(i, ctx); },
      cell_key, &codec);
  EXPECT_EQ(cells.executions.load(), 0)
      << "every cell must be served from the checkpoint";
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.rows[i], static_cast<int>(100 + i)) << i;
    EXPECT_TRUE(result.outcomes[i].resumed) << i;
    EXPECT_EQ(result.outcomes[i].status, CellStatus::kOk) << i;
  }
  EXPECT_NE(driver.report().find("resumed=6"), std::string::npos)
      << driver.report();
}

TEST(SweepResume, PartialJournalRunsOnlyTheMissingCells) {
  TempFile tmp("partial");
  const auto codec = int_codec();
  // Checkpoint only cells 0, 2, 4 — as if the first run was killed.
  {
    SweepJournal journal(tmp.path(), false);
    for (const std::size_t i : {0u, 2u, 4u}) {
      JournalEntry entry;
      entry.key = cell_key(i);
      entry.status = CellStatus::kOk;
      entry.payload = std::to_string(100 + i);
      journal.record(entry);
    }
  }
  SweepOptions opt;
  opt.workers = 1;
  opt.journal = std::make_shared<SweepJournal>(tmp.path(), true);
  SweepDriver driver(opt);
  CountingCells cells;
  const auto result = driver.run_cells<int>(
      6, [&](std::size_t i, CellContext& ctx) { return cells(i, ctx); },
      cell_key, &codec);
  EXPECT_EQ(cells.executions.load(), 3) << "only cells 1, 3, 5 execute";
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.rows[i], static_cast<int>(100 + i))
        << "resumed table must equal the uninterrupted one, cell " << i;
    EXPECT_EQ(result.outcomes[i].resumed, i % 2 == 0) << i;
  }
}

TEST(SweepResume, QuarantinedCellsReRunOnResume) {
  TempFile tmp("requarantine");
  const auto codec = int_codec();
  {
    SweepJournal journal(tmp.path(), false);
    JournalEntry bad;
    bad.key = cell_key(1);
    bad.status = CellStatus::kQuarantined;
    bad.attempts = 2;
    bad.category = "engine-exception";
    bad.error = "was failing last run";
    journal.record(bad);
    // A journal written before round budgets were retired: its category
    // is no longer a FaultCategory, but the line still loads and re-runs.
    JournalEntry old;
    old.key = cell_key(2);
    old.status = CellStatus::kQuarantined;
    old.attempts = 1;
    old.category = "round-budget-exceeded";
    old.error = "cell charged 1000 rounds (budget 100)";
    journal.record(old);
  }
  SweepOptions opt;
  opt.workers = 1;
  opt.journal = std::make_shared<SweepJournal>(tmp.path(), true);
  EXPECT_EQ(opt.journal->loaded(), 2u);
  SweepDriver driver(opt);
  CountingCells cells;
  const auto result = driver.run_cells<int>(
      3, [&](std::size_t i, CellContext& ctx) { return cells(i, ctx); },
      cell_key, &codec);
  EXPECT_EQ(cells.executions.load(), 3)
      << "the quarantined cells get another shot";
  for (const std::size_t i : {1u, 2u}) {
    EXPECT_EQ(result.rows[i], static_cast<int>(100 + i)) << i;
    EXPECT_EQ(result.outcomes[i].status, CellStatus::kOk) << i;
    EXPECT_FALSE(result.outcomes[i].resumed) << i;
  }
}

TEST(SweepResume, ForeignPayloadFallsBackToReRun) {
  TempFile tmp("foreign");
  const auto codec = int_codec();
  {
    SweepJournal journal(tmp.path(), false);
    JournalEntry stale;
    stale.key = cell_key(0);
    stale.status = CellStatus::kOk;
    stale.payload = "not-an-int (schema changed between versions)";
    journal.record(stale);
  }
  SweepOptions opt;
  opt.workers = 1;
  opt.journal = std::make_shared<SweepJournal>(tmp.path(), true);
  SweepDriver driver(opt);
  CountingCells cells;
  const auto result = driver.run_cells<int>(
      1, [&](std::size_t i, CellContext& ctx) { return cells(i, ctx); },
      cell_key, &codec);
  EXPECT_EQ(cells.executions.load(), 1)
      << "an undecodable payload re-runs instead of corrupting the row";
  EXPECT_EQ(result.rows[0], 100);
}

TEST(SweepResume, JournalingAloneKeepsLegacyThrowSemantics) {
  // A journal without quarantine still rethrows failures — robustness
  // features compose, they are not implicitly coupled.
  TempFile tmp("throws");
  SweepOptions opt;
  opt.workers = 1;
  opt.journal = std::make_shared<SweepJournal>(tmp.path(), false);
  SweepDriver driver(opt);
  EXPECT_THROW(
      (void)driver.run<int>(2,
                            [](std::size_t i, CellContext&) {
                              if (i == 1)
                                throw std::runtime_error("cell 1 fails");
                              return 0;
                            }),
      std::runtime_error);
}

}  // namespace
}  // namespace deltacolor::bench
