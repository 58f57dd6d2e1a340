#ifndef CUMULON_EXEC_PHYSICAL_JOB_H_
#define CUMULON_EXEC_PHYSICAL_JOB_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/task.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "exec/ew_step.h"
#include "exec/memory_budget.h"
#include "matrix/tile_store.h"
#include "matrix/tiled_matrix.h"

namespace cumulon {

class StealDomain;  // cluster/steal_domain.h

/// Inputs a physical job needs to turn itself into schedulable tasks.
struct BuildContext {
  TileStore* store = nullptr;            // closures + locality
  const TileOpCostModel* cost = nullptr; // cpu_seconds_ref per task
  bool attach_work = true;               // false for simulation-only plans
  bool query_locality = true;            // consult store->PreferredNodes

  /// Intra-job work stealing (cluster/steal_domain.h). When non-null, task
  /// bodies publish their block-splits through a TaskSplitScope, so idle
  /// workers can steal straggler splits. Borrowed from the executor; null =
  /// each task runs its splits itself through one task-wide reader (with
  /// task-level read memoization).
  StealDomain* steal = nullptr;

  /// Node-local tile-cache budget per machine (0 = caching off) and the
  /// number of machines the job's tasks spread over. When set, jobs whose
  /// splits re-read input tiles declare the expected cache-served bytes in
  /// TaskCost::bytes_read_cached — each reused tile is fetched roughly
  /// once per node instead of once per split. The executor fills both from
  /// the engine, so the cost model and the engine's cache agree on one
  /// budget.
  int64_t node_cache_bytes = 0;
  int cache_nodes = 0;

  /// Per-task in-flight prefetch budget in bytes for the double-buffered
  /// task bodies (TaskTileReader): each task hints its reads in compute
  /// order and keeps up to this many bytes downloading ahead of the
  /// computation. <= 0 disables the pipeline (plain blocking Gets).
  /// Only meaningful with attach_work; the executor fills it from
  /// ExecutorOptions::prefetch_budget_bytes.
  int64_t prefetch_budget_bytes = 0;

  /// Out-of-core streaming (exec/memory_budget.h). Every task reader
  /// charges its held bytes — in-flight prefetches, pinned operand panels,
  /// scratch reservations — to its node's ledger, pinning at most
  /// `task_pin_bytes` at once, each only until its last hinted read, and
  /// spilling the panel read furthest ahead under pressure (it is
  /// re-fetched from the DFS on the next touch).
  /// Compute order is unchanged, so budgeted runs stay bit-identical to
  /// resident ones. Borrowed from the executor's per-run group; required
  /// with attach_work (unbudgeted runs get unlimited ledgers). The
  /// executor derives task_pin_bytes under a budget as the node budget
  /// minus the tile-cache reservation, divided by the machine's task
  /// slots; it also sizes the declared-cost streaming term.
  MemoryBudgetGroup* memory_budget = nullptr;
  int64_t task_pin_bytes = kUnlimitedPinBytes;
};

/// One output tile a task will produce; used by the executor in simulation
/// mode to register metadata (placement) for downstream jobs.
struct TileOutput {
  std::string matrix;
  TileId id;
  int64_t bytes = 0;
};

/// A job lowered to concrete tasks.
struct BuiltJob {
  JobSpec spec;
  std::vector<std::vector<TileOutput>> task_outputs;  // parallel to tasks
};

/// Base class of Cumulon's physical operators. Each job is map-only: a set
/// of independent tasks that read whatever tiles they need from the DFS
/// and write result tiles back — no shuffle barrier (this is the paper's
/// "flexible execution model" that avoids MapReduce's limitations).
class PhysicalJob {
 public:
  virtual ~PhysicalJob() = default;

  virtual const std::string& name() const = 0;

  /// Validates shapes/parameters and produces the task list.
  virtual Result<BuiltJob> Build(const BuildContext& ctx) const = 0;

  /// Matrices this job reads / writes, for DAG scheduling: two jobs are
  /// independent iff neither reads or writes a matrix the other writes.
  virtual std::vector<std::string> InputMatrices() const = 0;
  virtual std::vector<std::string> OutputMatrices() const = 0;

  virtual std::string DebugString() const = 0;
};

/// Parameters of a multiply job: how many result-tile rows/columns one task
/// covers (bi x bj) and how many k-tiles it folds (bk). These are exactly
/// the per-operator knobs Cumulon's optimizer tunes: larger blocks amortize
/// input reads (each A tile is read by fewer tasks) but reduce parallelism.
/// bk <= 0 means "fold the entire k dimension in one task" (no split-k).
struct MatMulParams {
  int64_t bi = 1;
  int64_t bj = 1;
  int64_t bk = 0;

  std::string ToString() const;
};

/// C = A * B over tile grids, with an optional fused element-wise epilogue
/// applied to each produced C tile. One task covers a (bi x bj)-tile block
/// of C and a bk-tile range of k. When bk splits the k dimension into nk>1
/// ranges, each task writes its partial products to PartialName(out, p) and
/// the epilogue is deferred to the SumJob that merges the partials (see
/// AddMatMul in physical_plan.h, which wires that follow-up job).
class MatMulJob : public PhysicalJob {
 public:
  MatMulJob(std::string name, TiledMatrix a, TiledMatrix b, TiledMatrix out,
            MatMulParams params, std::vector<EwStep> epilogue);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

  /// Number of k ranges the params split this multiply into.
  int64_t NumKSplits() const;

  /// Structural accessors for the plan verifier's split-arithmetic pass
  /// (src/verify), which re-derives tile coverage from first principles.
  const MatMulParams& params() const { return params_; }
  const TiledMatrix& a() const { return a_; }
  const TiledMatrix& b() const { return b_; }
  const TiledMatrix& out() const { return out_; }

  /// Worst-case working set of one task: the input block a task buffers
  /// (bi x bk tiles of A, bk x bj of B) plus one output accumulator. The
  /// optimizer rejects split parameters whose tasks exceed a slot's share
  /// of machine memory.
  static int64_t TaskMemoryBytes(const TileLayout& a, const TileLayout& b,
                                 const MatMulParams& params);

  /// Name of the partial-product matrix for k-range `p`.
  static std::string PartialName(const std::string& out, int64_t p);

 private:
  std::string name_;
  TiledMatrix a_, b_, out_;
  MatMulParams params_;
  std::vector<EwStep> epilogue_;
};

/// out = sum(parts) with an optional fused epilogue; merges the partial
/// products of a split-k multiply. All parts share out's layout.
class SumJob : public PhysicalJob {
 public:
  SumJob(std::string name, std::vector<std::string> parts, TiledMatrix out,
         std::vector<EwStep> epilogue, int64_t tiles_per_task = 8);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

 private:
  std::string name_;
  std::vector<std::string> parts_;
  TiledMatrix out_;
  std::vector<EwStep> epilogue_;
  int64_t tiles_per_task_;
};

/// out = steps(in) applied tile-by-tile (no multiply involved). The
/// unfused fallback for element-wise expressions.
class EwChainJob : public PhysicalJob {
 public:
  EwChainJob(std::string name, TiledMatrix in, TiledMatrix out,
             std::vector<EwStep> steps, int64_t tiles_per_task = 8);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

 private:
  std::string name_;
  TiledMatrix in_, out_;
  std::vector<EwStep> steps_;
  int64_t tiles_per_task_;
};

/// Aggregation flavors: fold a matrix to a column (row sums) or a row
/// (column sums). Statistical programs use these for normalizations,
/// means, and convergence checks.
enum class AggKind { kRowSums, kColSums };

const char* AggKindName(AggKind kind);

/// Layout of the aggregate of a matrix with layout `in`: rows x 1 for row
/// sums (tile grid collapses along columns), 1 x cols for column sums.
TileLayout AggOutputLayout(const TileLayout& in, AggKind kind);

/// out = agg(in) with an optional fused element-wise epilogue (e.g. a
/// 1/n scale to turn sums into means). One task covers `stripes_per_task`
/// tile-grid rows (row sums) or columns (column sums) and reads the full
/// stripe of input tiles.
class AggregateJob : public PhysicalJob {
 public:
  AggregateJob(std::string name, TiledMatrix in, TiledMatrix out,
               AggKind kind, std::vector<EwStep> epilogue,
               int64_t stripes_per_task = 1);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

 private:
  std::string name_;
  TiledMatrix in_, out_;
  AggKind kind_;
  std::vector<EwStep> epilogue_;
  int64_t stripes_per_task_;
};

/// out = in^T; tile (i,j) of the output is the transpose of tile (j,i).
class TransposeJob : public PhysicalJob {
 public:
  TransposeJob(std::string name, TiledMatrix in, TiledMatrix out,
               int64_t tiles_per_task = 8);

  const std::string& name() const override { return name_; }
  Result<BuiltJob> Build(const BuildContext& ctx) const override;
  std::vector<std::string> InputMatrices() const override;
  std::vector<std::string> OutputMatrices() const override;
  std::string DebugString() const override;

 private:
  std::string name_;
  TiledMatrix in_, out_;
  int64_t tiles_per_task_;
};

}  // namespace cumulon

#endif  // CUMULON_EXEC_PHYSICAL_JOB_H_
