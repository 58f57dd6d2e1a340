#include <map>

#include <gtest/gtest.h>

#include "cluster/real_engine.h"
#include "cluster/sim_engine.h"
#include "common/rng.h"
#include "cost/cost_model.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/dense_matrix.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {
namespace {

// ---------------------------------------------------------------------------
// Job dependency metadata
// ---------------------------------------------------------------------------

TEST(JobDepsTest, MatMulInputsAndOutputs) {
  TiledMatrix a{"A", TileLayout::Square(16, 16, 8)};
  TiledMatrix b{"B", TileLayout::Square(16, 16, 8)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, 8)};
  MatMulJob plain("mm", a, b, c, MatMulParams{1, 1, 0},
                  {EwStep::Binary(BinaryOp::kAdd, "D")});
  EXPECT_EQ(plain.InputMatrices(),
            (std::vector<std::string>{"A", "B", "D"}));
  EXPECT_EQ(plain.OutputMatrices(), (std::vector<std::string>{"C"}));

  // Split-k: outputs are the partials; the epilogue moves to the SumJob.
  MatMulJob split("mm2", a, b, c, MatMulParams{1, 1, 1},
                  {EwStep::Binary(BinaryOp::kAdd, "D")});
  EXPECT_EQ(split.InputMatrices(), (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(split.OutputMatrices(),
            (std::vector<std::string>{"C#k0", "C#k1"}));
}

TEST(JobDepsTest, LevelsOfLinearChain) {
  // C = A*B; D = C*C — strictly sequential.
  TiledMatrix a{"A", TileLayout::Square(16, 16, 8)};
  TiledMatrix b{"B", TileLayout::Square(16, 16, 8)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, 8)};
  TiledMatrix d{"D", TileLayout::Square(16, 16, 8)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{}, {}, &plan).ok());
  ASSERT_TRUE(AddMatMul(c, c, d, MatMulParams{}, {}, &plan).ok());
  EXPECT_EQ(Executor::JobLevels(plan), (std::vector<int>{0, 1}));
}

TEST(JobDepsTest, IndependentJobsShareALevel) {
  TiledMatrix a{"A", TileLayout::Square(16, 16, 8)};
  TiledMatrix b{"B", TileLayout::Square(16, 16, 8)};
  TiledMatrix c1{"C1", TileLayout::Square(16, 16, 8)};
  TiledMatrix c2{"C2", TileLayout::Square(16, 16, 8)};
  TiledMatrix d{"D", TileLayout::Square(16, 16, 8)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c1, MatMulParams{}, {}, &plan).ok());
  ASSERT_TRUE(AddMatMul(b, a, c2, MatMulParams{}, {}, &plan).ok());
  ASSERT_TRUE(AddMatMul(c1, c2, d, MatMulParams{}, {}, &plan).ok());
  EXPECT_EQ(Executor::JobLevels(plan), (std::vector<int>{0, 0, 1}));
}

TEST(JobDepsTest, SplitKSumDependsOnItsMultiply) {
  TiledMatrix a{"A", TileLayout::Square(16, 64, 16)};
  TiledMatrix b{"B", TileLayout::Square(64, 16, 16)};
  TiledMatrix c{"C", TileLayout::Square(16, 16, 16)};
  PhysicalPlan plan;
  ASSERT_TRUE(AddMatMul(a, b, c, MatMulParams{1, 1, 1}, {}, &plan).ok());
  EXPECT_EQ(Executor::JobLevels(plan), (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------------
// Leveled execution
// ---------------------------------------------------------------------------

LoweredProgram LowerGnmf(const std::map<std::string, TiledMatrix>& bindings,
                         const GnmfSpec& spec) {
  LoweringOptions lowering;
  lowering.tile_dim = 8;
  // Unfused: the numerator and denominator of each update become
  // independent jobs, giving the DAG scheduler something to merge (fusion
  // chains them through the epilogue operand).
  lowering.enable_fusion = false;
  auto lowered =
      Lower(OptimizeProgram(BuildGnmfIteration(spec)), bindings, lowering);
  CUMULON_CHECK(lowered.ok()) << lowered.status();
  return std::move(lowered).value();
}

TEST(LeveledExecutionTest, RealModeProducesIdenticalResults) {
  GnmfSpec spec;
  spec.m = 16;
  spec.n = 12;
  spec.k = 4;
  Rng rng(91);
  auto make_inputs = [&](InMemoryTileStore* store,
                         std::map<std::string, TiledMatrix>* bindings,
                         Rng* local_rng) {
    for (auto [name, rows, cols] :
         {std::tuple<const char*, int64_t, int64_t>{"V", spec.m, spec.n},
          {"W", spec.m, spec.k},
          {"H", spec.k, spec.n}}) {
      TiledMatrix m{name, TileLayout::Square(rows, cols, 8)};
      DenseMatrix dense = DenseMatrix::Uniform(rows, cols, local_rng, 0.1, 1);
      CUMULON_CHECK(StoreDense(dense, m, store).ok());
      bindings->insert_or_assign(name, m);
    }
  };

  // Sequential run.
  InMemoryTileStore store_seq;
  std::map<std::string, TiledMatrix> bindings_seq;
  Rng rng1(91);
  make_inputs(&store_seq, &bindings_seq, &rng1);
  auto lowered_seq = LowerGnmf(bindings_seq, spec);
  RealEngine engine1(ClusterConfig{MachineProfile{}, 2, 2},
                     RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions seq_options;
  Executor seq(&store_seq, &engine1, &cost, seq_options);
  auto seq_stats = seq.Run(lowered_seq.plan);
  ASSERT_TRUE(seq_stats.ok()) << seq_stats.status();
  // A sequential round is one job and keeps that job's name.
  ASSERT_EQ(seq_stats->jobs.size(), lowered_seq.plan.jobs.size());
  for (size_t j = 0; j < seq_stats->jobs.size(); ++j) {
    EXPECT_EQ(seq_stats->jobs[j].name, lowered_seq.plan.jobs[j]->name());
  }

  // Leveled run over identical inputs.
  InMemoryTileStore store_par;
  std::map<std::string, TiledMatrix> bindings_par;
  Rng rng2(91);
  make_inputs(&store_par, &bindings_par, &rng2);
  auto lowered_par = LowerGnmf(bindings_par, spec);
  RealEngine engine2(ClusterConfig{MachineProfile{}, 2, 2},
                     RealEngineOptions{});
  ExecutorOptions par_options;
  par_options.parallelize_independent_jobs = true;
  Executor par(&store_par, &engine2, &cost, par_options);
  auto par_stats = par.Run(lowered_par.plan);
  ASSERT_TRUE(par_stats.ok()) << par_stats.status();
  // Fewer scheduling rounds than jobs: some level really merged two jobs.
  EXPECT_LT(par_stats->jobs.size(), lowered_par.plan.jobs.size());
  EXPECT_EQ(par_stats->jobs.front().name.rfind("level0(", 0), 0u)
      << par_stats->jobs.front().name;

  for (const char* target : {"H", "W"}) {
    auto seq_out = LoadDense(lowered_seq.outputs.at(target), &store_seq);
    auto par_out = LoadDense(lowered_par.outputs.at(target), &store_par);
    ASSERT_TRUE(seq_out.ok() && par_out.ok());
    auto diff = seq_out->MaxAbsDiff(*par_out);
    ASSERT_TRUE(diff.ok());
    EXPECT_EQ(diff.value(), 0.0) << target;
  }
}

TEST(LeveledExecutionTest, SimModeNeverSlowerThanSequential) {
  GnmfSpec spec;
  spec.m = 1 << 14;
  spec.n = 1 << 13;
  spec.k = 128;
  DfsOptions dfs_options;
  dfs_options.num_nodes = 16;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);
  std::map<std::string, TiledMatrix> bindings;
  for (auto [name, rows, cols] :
       {std::tuple<const char*, int64_t, int64_t>{"V", spec.m, spec.n},
        {"W", spec.m, spec.k},
        {"H", spec.k, spec.n}}) {
    TiledMatrix m{name, TileLayout::Square(rows, cols, 2048)};
    for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
      for (int64_t c = 0; c < m.layout.grid_cols(); ++c) {
        const int64_t bytes =
            16 + m.layout.TileRowsAt(r) * m.layout.TileColsAt(c) * 8;
        CUMULON_CHECK(store.PutMeta(name, TileId{r, c}, bytes, -1).ok());
      }
    }
    bindings.insert_or_assign(name, m);
  }
  LoweringOptions lowering;
  lowering.tile_dim = 2048;
  auto lowered = Lower(OptimizeProgram(BuildGnmfIteration(spec)), bindings,
                       lowering);
  ASSERT_TRUE(lowered.ok()) << lowered.status();

  auto machine = FindMachine("m1.large");
  ASSERT_TRUE(machine.ok());
  ClusterConfig cluster{machine.value(), 16, 2};
  TileOpCostModel cost;

  auto run = [&](bool parallel) {
    SimEngine engine(cluster, SimEngineOptions{});
    ExecutorOptions options;
    options.real_mode = false;
    options.parallelize_independent_jobs = parallel;
    options.drop_temporaries = false;  // second run reuses registrations
    Executor executor(&store, &engine, &cost, options);
    auto stats = executor.Run(lowered->plan);
    CUMULON_CHECK(stats.ok()) << stats.status();
    return stats->total_seconds;
  };
  const double sequential = run(false);
  const double parallel = run(true);
  EXPECT_LE(parallel, sequential + 1e-9);
}

TEST(LeveledExecutionTest, EmptyPlanIsFine) {
  InMemoryTileStore store;
  RealEngine engine(ClusterConfig{MachineProfile{}, 1, 1},
                    RealEngineOptions{});
  TileOpCostModel cost;
  ExecutorOptions options;
  options.parallelize_independent_jobs = true;
  Executor executor(&store, &engine, &cost, options);
  PhysicalPlan plan;
  auto stats = executor.Run(plan);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->total_tasks, 0);
}

}  // namespace
}  // namespace cumulon
