#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "cluster/steal_domain.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "dfs/dfs_tile_store.h"
#include "exec/executor.h"
#include "exec/physical_plan.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// StealDomain / TaskSplitScope unit behavior
// ---------------------------------------------------------------------------

TEST(StealDomainTest, EverySplitRunsExactlyOnce) {
  StealDomain domain(2);
  domain.BeginJob(1);
  constexpr int kSplits = 64;
  std::vector<std::atomic<int>> ran(kSplits);
  for (auto& r : ran) r.store(0);

  TaskSplitScope scope(&domain, "unit", /*machine=*/0);
  for (int i = 0; i < kSplits; ++i) {
    scope.Add([&ran, i]() -> Status {
      ran[i].fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(scope.RunAndWait().ok());
  domain.NoteTaskFinished();

  for (int i = 0; i < kSplits; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "split " << i;
  }
  const StealDomainStats stats = domain.stats();
  EXPECT_EQ(stats.splits_enqueued, kSplits);
}

TEST(StealDomainTest, RunAndWaitReturnsFirstSplitError) {
  StealDomain domain(2);
  domain.BeginJob(1);
  TaskSplitScope scope(&domain, "unit", 0);
  scope.Add([]() -> Status { return Status::OK(); });
  scope.Add([]() -> Status { return Status::Internal("boom"); });
  scope.Add([]() -> Status { return Status::OK(); });
  const Status s = scope.RunAndWait();
  domain.NoteTaskFinished();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("boom"), std::string::npos) << s;
}

TEST(StealDomainTest, HelperDrainStealsFromBusyOwner) {
  // One owner publishes slow splits; a second participant (the engine's
  // helper drain stand-in) must pull work from the owner's deque tail while
  // the owner is busy inside a split body.
  StealDomain domain(2);
  domain.BeginJob(1);
  constexpr int kSplits = 32;
  std::atomic<int> executed{0};

  std::thread helper([&domain] { domain.HelpDrain(); });

  TaskSplitScope scope(&domain, "straggler", 0);
  for (int i = 0; i < kSplits; ++i) {
    scope.Add([&executed]() -> Status {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      executed.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_TRUE(scope.RunAndWait().ok());
  domain.NoteTaskFinished();
  helper.join();

  EXPECT_EQ(executed.load(), kSplits);
  const StealDomainStats stats = domain.stats();
  EXPECT_EQ(stats.splits_enqueued, kSplits);
  EXPECT_GT(stats.splits_stolen, 0)
      << "helper never stole despite the owner sleeping in every split";
  EXPECT_GE(stats.steal_attempts, stats.splits_stolen);
}

TEST(StealDomainTest, ConcurrentScopesShareOneDomain) {
  // Two tasks publishing into one domain concurrently: each scope's
  // RunAndWait must only account for its own splits.
  StealDomain domain(4);
  domain.BeginJob(2);
  std::atomic<int> a_runs{0};
  std::atomic<int> b_runs{0};

  std::thread ta([&] {
    TaskSplitScope scope(&domain, "a", 0);
    for (int i = 0; i < 20; ++i) {
      scope.Add([&a_runs]() -> Status {
        a_runs.fetch_add(1);
        return Status::OK();
      });
    }
    EXPECT_TRUE(scope.RunAndWait().ok());
    domain.NoteTaskFinished();
  });
  std::thread tb([&] {
    TaskSplitScope scope(&domain, "b", 1);
    for (int i = 0; i < 20; ++i) {
      scope.Add([&b_runs]() -> Status {
        b_runs.fetch_add(1);
        return Status::OK();
      });
    }
    EXPECT_TRUE(scope.RunAndWait().ok());
    domain.NoteTaskFinished();
  });
  ta.join();
  tb.join();
  EXPECT_EQ(a_runs.load(), 20);
  EXPECT_EQ(b_runs.load(), 20);
  EXPECT_EQ(domain.stats().splits_enqueued, 40);
}

// ---------------------------------------------------------------------------
// Executor integration
// ---------------------------------------------------------------------------

/// Same harness as exec_test.cc, parameterized on enable_work_stealing.
class StealExecTest : public ::testing::Test {
 protected:
  std::unique_ptr<Executor> MakeExecutor(bool stealing) {
    ExecutorOptions options;
    options.enable_work_stealing = stealing;
    return std::make_unique<Executor>(&store_, &engine_, &cost_, options);
  }

  DenseMatrix MakeInput(const TiledMatrix& m) {
    DenseMatrix dense =
        DenseMatrix::Gaussian(m.layout.rows(), m.layout.cols(), &rng_);
    CUMULON_CHECK(StoreDense(dense, m, &store_).ok());
    return dense;
  }

  Rng rng_{42};
  InMemoryTileStore store_;
  TileOpCostModel cost_;
  RealEngine engine_{ClusterConfig{MachineProfile{}, 2, 2},
                     RealEngineOptions{}};
};

TEST_F(StealExecTest, MatMulBitIdenticalWithAndWithoutStealing) {
  TiledMatrix a{"A", TileLayout::Square(48, 48, 16)};
  TiledMatrix b{"B", TileLayout::Square(48, 48, 16)};
  MakeInput(a);
  MakeInput(b);

  TiledMatrix c_plain{"C_plain", TileLayout::Square(48, 48, 16)};
  TiledMatrix c_steal{"C_steal", TileLayout::Square(48, 48, 16)};

  // One task owns the whole 3x3 output grid, so its 9 splits are the only
  // work — the shape where stealing actually redistributes splits.
  PhysicalPlan plan_plain;
  ASSERT_TRUE(
      AddMatMul(a, b, c_plain, MatMulParams{3, 3, 0}, {}, &plan_plain).ok());
  auto stats_plain = MakeExecutor(false)->Run(plan_plain);
  ASSERT_TRUE(stats_plain.ok()) << stats_plain.status();

  PhysicalPlan plan_steal;
  ASSERT_TRUE(
      AddMatMul(a, b, c_steal, MatMulParams{3, 3, 0}, {}, &plan_steal).ok());
  auto stats_steal = MakeExecutor(true)->Run(plan_steal);
  ASSERT_TRUE(stats_steal.ok()) << stats_steal.status();

  // Who runs a split must not change what it computes: stealing on and off
  // have to agree to the bit.
  auto plain = LoadDense(c_plain, &store_);
  auto steal = LoadDense(c_steal, &store_);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(steal.ok()) << steal.status();
  auto diff = plain->MaxAbsDiff(*steal);
  ASSERT_TRUE(diff.ok()) << diff.status();
  EXPECT_EQ(diff.value(), 0.0);
}

TEST_F(StealExecTest, StealCountersOnlyAppearForStealingRuns) {
  TiledMatrix a{"A", TileLayout::Square(64, 64, 16)};
  TiledMatrix b{"B", TileLayout::Square(64, 64, 16)};
  MakeInput(a);
  MakeInput(b);

  TiledMatrix c0{"C0", TileLayout::Square(64, 64, 16)};
  PhysicalPlan p0;
  ASSERT_TRUE(AddMatMul(a, b, c0, MatMulParams{4, 4, 0}, {}, &p0).ok());
  auto plain = MakeExecutor(false)->Run(p0);
  ASSERT_TRUE(plain.ok()) << plain.status();
  EXPECT_EQ(plain->metrics.counters.count("exec.steal.splits"), 0u)
      << "non-stealing runs must keep their historical metric set";

  TiledMatrix c1{"C1", TileLayout::Square(64, 64, 16)};
  PhysicalPlan p1;
  ASSERT_TRUE(AddMatMul(a, b, c1, MatMulParams{4, 4, 0}, {}, &p1).ok());
  auto stolen = MakeExecutor(true)->Run(p1);
  ASSERT_TRUE(stolen.ok()) << stolen.status();
  EXPECT_EQ(stolen->metrics.CounterOr("exec.steal.splits", 0), 16)
      << "one task owning the 4x4 output grid must publish 16 splits";
  // Stolen/attempt counts depend on thread timing; presence is the
  // contract, value is not.
  EXPECT_GE(stolen->metrics.CounterOr("exec.steal.stolen", -1), 0);
  EXPECT_GE(stolen->metrics.CounterOr("exec.steal.attempts", -1), 0);
}

TEST_F(StealExecTest, EwChainMatchesReferenceUnderStealing) {
  TiledMatrix x{"X", TileLayout::Square(40, 56, 16)};
  DenseMatrix dx = MakeInput(x);
  TiledMatrix y{"Y", TileLayout::Square(40, 56, 16)};

  PhysicalPlan plan;
  std::vector<EwStep> steps;
  steps.push_back(EwStep::Unary(UnaryOp::kScale, 2.0));
  steps.push_back(EwStep::Unary(UnaryOp::kAddScalar, -1.0));
  ASSERT_TRUE(AddEwChain(x, y, std::move(steps), &plan).ok());
  auto stats = MakeExecutor(true)->Run(plan);
  ASSERT_TRUE(stats.ok()) << stats.status();

  auto loaded = LoadDense(y, &store_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  for (int64_t r = 0; r < dx.rows(); ++r) {
    for (int64_t c = 0; c < dx.cols(); ++c) {
      EXPECT_EQ(loaded->At(r, c), dx.At(r, c) * 2.0 - 1.0);
    }
  }
}


// ---------------------------------------------------------------------------
// Both branches of the task bodies' split runner on every job kind: one
// task-wide reader (stealing off) vs one published split per unit
// (stealing on). Every case has tasks of several units.
// ---------------------------------------------------------------------------

TiledMatrix Square48(const char* name) {
  return TiledMatrix{name, TileLayout::Square(48, 48, 16)};
}

/// One job kind: appends its job(s) over inputs A, B and D (48x48, 3x3
/// tiles) to `plan` and returns the matrix they write.
struct RunnerCase {
  const char* name;
  TiledMatrix (*add)(PhysicalPlan* plan);
};

/// Runs `c` on a fresh store and engine, so that names, and hence error
/// messages, are the same in both modes. With `hole`, tile (1,1) of A is
/// missing. Returns the output or the run's error.
Result<DenseMatrix> RunCase(const RunnerCase& c, bool stealing, bool hole) {
  InMemoryTileStore store;
  Rng rng(42);
  const TiledMatrix staged = Square48("A_staged");
  CUMULON_RETURN_IF_ERROR(
      StoreDense(DenseMatrix::Gaussian(48, 48, &rng), staged, &store));
  for (int64_t r = 0; r < 3; ++r) {
    for (int64_t col = 0; col < 3; ++col) {
      if (hole && r == 1 && col == 1) continue;
      CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> tile,
                               store.Get(staged.name, TileId{r, col}, -1));
      CUMULON_RETURN_IF_ERROR(store.Put("A", TileId{r, col}, tile, -1));
    }
  }
  for (const char* name : {"B", "D"}) {
    CUMULON_RETURN_IF_ERROR(StoreDense(DenseMatrix::Gaussian(48, 48, &rng),
                                       Square48(name), &store));
  }
  PhysicalPlan plan;
  const TiledMatrix out = c.add(&plan);
  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2},
                    RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.enable_work_stealing = stealing;
  Executor executor(&store, &engine, &cost, options);
  CUMULON_RETURN_IF_ERROR(executor.Run(plan).status());
  return LoadDense(out, &store);
}

void PrintTo(const RunnerCase& c, std::ostream* os) { *os << c.name; }

class StealExecRunnerTest : public ::testing::TestWithParam<RunnerCase> {};

TEST_P(StealExecRunnerTest, StealingOnAndOffAgreeOnOutputAndErrors) {
  auto plain = RunCase(GetParam(), /*stealing=*/false, /*hole=*/false);
  auto steal = RunCase(GetParam(), /*stealing=*/true, /*hole=*/false);
  ASSERT_TRUE(plain.ok()) << plain.status();
  ASSERT_TRUE(steal.ok()) << steal.status();
  ASSERT_EQ(plain->rows(), steal->rows());
  ASSERT_EQ(plain->cols(), steal->cols());
  for (int64_t r = 0; r < plain->rows(); ++r) {
    for (int64_t c = 0; c < plain->cols(); ++c) {
      ASSERT_EQ(plain->At(r, c), steal->At(r, c)) << "(" << r << "," << c
                                                  << ")";
    }
  }

  auto plain_err = RunCase(GetParam(), /*stealing=*/false, /*hole=*/true);
  auto steal_err = RunCase(GetParam(), /*stealing=*/true, /*hole=*/true);
  ASSERT_FALSE(plain_err.ok());
  ASSERT_FALSE(steal_err.ok());
  EXPECT_EQ(plain_err.status().code(), StatusCode::kNotFound)
      << plain_err.status();
  EXPECT_EQ(plain_err.status().code(), steal_err.status().code());
  EXPECT_EQ(plain_err.status().message(), steal_err.status().message());
}

INSTANTIATE_TEST_SUITE_P(
    JobKinds, StealExecRunnerTest,
    ::testing::Values(
        RunnerCase{"MatMulEpilogue",
                   [](PhysicalPlan* plan) {
                     const TiledMatrix out = Square48("Out");
                     CUMULON_CHECK(AddMatMul(Square48("A"), Square48("B"),
                                             out, MatMulParams{3, 3, 0},
                                             {EwStep::Binary(BinaryOp::kAdd,
                                                             "D")},
                                             plan)
                                       .ok());
                     return out;
                   }},
        RunnerCase{"SplitKMatMulSum",
                   [](PhysicalPlan* plan) {
                     const TiledMatrix out = Square48("Out");
                     CUMULON_CHECK(AddMatMul(Square48("A"), Square48("B"),
                                             out, MatMulParams{3, 3, 1},
                                             {EwStep::Binary(BinaryOp::kAdd,
                                                             "D")},
                                             plan)
                                       .ok());
                     return out;
                   }},
        RunnerCase{"EwChain",
                   [](PhysicalPlan* plan) {
                     const TiledMatrix out = Square48("Out");
                     CUMULON_CHECK(
                         AddEwChain(Square48("A"), out,
                                    {EwStep::Unary(UnaryOp::kScale, 2.0),
                                     EwStep::Binary(BinaryOp::kMul, "D")},
                                    plan)
                             .ok());
                     return out;
                   }},
        RunnerCase{"RowSums",
                   [](PhysicalPlan* plan) {
                     const TiledMatrix a = Square48("A");
                     const TiledMatrix out{
                         "Out", AggOutputLayout(a.layout, AggKind::kRowSums)};
                     CUMULON_CHECK(
                         AddAggregate(a, out, AggKind::kRowSums,
                                      {EwStep::Unary(UnaryOp::kScale, 0.5)},
                                      plan, /*stripes_per_task=*/3)
                             .ok());
                     return out;
                   }},
        RunnerCase{"ColSums",
                   [](PhysicalPlan* plan) {
                     const TiledMatrix a = Square48("A");
                     const TiledMatrix out{
                         "Out", AggOutputLayout(a.layout, AggKind::kColSums)};
                     CUMULON_CHECK(AddAggregate(a, out, AggKind::kColSums, {},
                                                plan, /*stripes_per_task=*/3)
                                       .ok());
                     return out;
                   }},
        RunnerCase{"Transpose",
                   [](PhysicalPlan* plan) {
                     const TiledMatrix a = Square48("A");
                     const TiledMatrix out{"Out", a.layout.Transposed()};
                     CUMULON_CHECK(AddTranspose(a, out, plan).ok());
                     return out;
                   }}),
    [](const ::testing::TestParamInfo<RunnerCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace cumulon
