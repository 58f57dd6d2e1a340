#ifndef CUMULON_EXEC_EXECUTOR_H_
#define CUMULON_EXEC_EXECUTOR_H_

#include <atomic>
#include <string>
#include <vector>

#include "cluster/engine.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "exec/memory_budget.h"
#include "exec/physical_plan.h"
#include "matrix/tile_store.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cumulon {

class SlotPool;      // sched/slot_pool.h
class StealDomain;   // cluster/steal_domain.h

struct ExecutorOptions {
  /// true: attach work closures and actually compute tiles (RealEngine).
  /// false: simulation only; output tile metadata is registered in the
  /// store so downstream jobs still see placement.
  bool real_mode = true;

  /// Per-job scheduling/setup overhead added to the plan total (Hadoop job
  /// submission latency). Applied in both modes for comparability.
  double job_startup_seconds = 3.0;

  /// Ask the store where input tiles live and prefer those machines.
  bool query_locality = true;

  /// Delete `plan.temporaries` matrices after a successful run.
  bool drop_temporaries = true;

  /// Per-task in-flight budget of the asynchronous tile-prefetch pipeline
  /// (exec/prefetch_pipeline.h): task bodies hint their reads in compute
  /// order and keep up to this many bytes downloading ahead of the
  /// computation. <= 0 disables prefetching (plain blocking Gets). Only
  /// meaningful in real mode with a store whose GetAsync is actually
  /// asynchronous (DfsTileStore::EnablePrefetch).
  int64_t prefetch_budget_bytes = 64LL << 20;

  /// Schedule the plan as a DAG: jobs with no data dependency run
  /// concurrently, sharing the cluster's slots (their tasks interleave in
  /// one scheduling round per dependency level). Off = one job at a time,
  /// like stock Hadoop's job queue (ablation A3 measures the difference).
  bool parallelize_independent_jobs = false;

  /// Intra-job split-level work stealing (cluster/steal_domain.h). It picks
  /// the branch of the one split runner every task body goes through
  /// (RunTaskUnits in exec/physical_job.cc). Off: a task runs its splits
  /// itself through one task-wide prefetch reader with a read memo. On:
  /// the task publishes its splits to per-slot deques and idle workers
  /// steal from the tail, shaving intra-job stragglers; each split reads
  /// through its own reader (a reader is single-threaded), so splits that
  /// share input tiles forgo task-level read memoization. Off by default.
  /// Results are bit-identical either way — splits write disjoint tiles.
  /// Real mode only.
  bool enable_work_stealing = false;

  /// Out-of-core streaming (exec/memory_budget.h): per-node byte budget
  /// covering everything the node's tasks keep resident at once — the tile
  /// cache's standing reservation, in-flight prefetches, pinned operand
  /// panels, and task scratch, all weighed as aligned Tile::MemoryBytes
  /// footprints. Each task slot pins at most its share
  /// ((budget - cache reservation) / slots_per_machine); under pressure
  /// the least-recently-used panel spills (tiles are immutable and stay in
  /// the DFS, so a spill is a drop plus a possible later re-fetch).
  /// Compute order never changes, so results are bit-identical to an
  /// unbudgeted run; exec.spill.* / mem.budget.* metrics and the "spill"
  /// trace category expose the traffic. <= 0 = unbudgeted: tasks charge an
  /// unlimited ledger that never refuses, so they read exactly as resident
  /// execution and report no spill or mem.budget.* figures. The ledger only
  /// runs in real mode — Run then fails with
  /// InvalidArgument when the budget cannot even fund the engine's
  /// tile-cache reservation; in sim mode the budget instead feeds the
  /// declared-cost streaming term (cost/cost_model.h
  /// StreamingRefetchBytes), so predictions show the stream-vs-resident
  /// crossover.
  int64_t memory_budget_bytes = 0;

  /// Records job spans (and, in sim mode, per-job startup spans) so every
  /// engine task span nests under its job. Borrowed; falls back to
  /// GlobalTracer() when null. Wire the same tracer into the engine's
  /// options for task-level spans.
  Tracer* tracer = nullptr;

  /// Destination of the exec.* metrics, under the same names for every
  /// plan (no per-plan names). PlanStats::metrics scopes its
  /// exec.* counters to this run (a private per-run registry), so two
  /// concurrent Run calls sharing this registry never double-count each
  /// other's deltas; non-exec names (engine.*, dfs.*) are still the shared
  /// registry's delta and are best-effort under concurrency. Borrowed; the
  /// executor owns a private registry when null.
  MetricsRegistry* metrics = nullptr;

  // --- Multi-tenant scheduling (sched/workload_manager.h) ---------------
  // Defaults preserve the classic exclusive-engine behavior.

  /// Identity of the plan this executor runs on behalf of. plan_tag
  /// prefixes job/task span names and cancellation messages; plan_id picks
  /// the driver trace lane and tags span args. plan_id < 0 = untagged.
  /// Per-plan metrics are PlanStats::metrics, never tagged names in the
  /// shared registry, so the registry's size does not grow with plans.
  int64_t plan_id = -1;
  std::string plan_tag;

  /// Slot arbiter shared with concurrently running plans, forwarded to the
  /// engine with every job. Borrowed; null = exclusive slots.
  SlotPool* slot_pool = nullptr;

  /// Cooperative cancellation: checked before each job and forwarded to
  /// the engine (checked between tasks). When it flips true, Run returns
  /// Status::Cancelled. Borrowed; null = not cancellable.
  const std::atomic<bool>* cancel = nullptr;
};

struct JobRecord {
  std::string name;
  JobStats stats;
};

/// Aggregate outcome of running a plan.
///
/// Concurrency contract: a PlanStats is built and read by the single driver
/// thread of one Executor::Run — its fields need no lock. The engine-side
/// inputs it aggregates are published to that thread with real
/// synchronization, not convention: per-task TaskRunInfo via the engine's
/// completion latch (RealEngine's JobSync mutex) and counter values via the
/// internally synchronized MetricsRegistry. Anything folded in from a
/// *shared* registry or cache under concurrent plans is best-effort, which
/// is why the exec.* counters come from the per-run private registry.
struct PlanStats {
  std::vector<JobRecord> jobs;
  double total_seconds = 0.0;  // job durations + per-job startup
  int64_t bytes_read = 0;
  int64_t bytes_written = 0;
  int total_tasks = 0;
  int non_local_tasks = 0;

  // Node-local tile-cache totals: measured hits/misses in real mode,
  // modeled cached bytes in sim mode. All zero when caching is off.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  int64_t bytes_read_cached = 0;

  /// Total task time spent blocked on tile I/O (sum of the jobs'
  /// JobStats::stall_seconds): measured waits in real mode, the overlap
  /// model's residual read time in sim mode.
  double stall_seconds = 0.0;

  // Out-of-core spill totals over the plan (sums of the jobs' JobStats
  // spill fields; all zero without a memory budget).
  int64_t spill_evictions = 0;
  int64_t spill_evicted_bytes = 0;
  int64_t spill_refetches = 0;
  int64_t spill_refetch_bytes = 0;
  /// Reads that streamed through the budget window without pinning (the
  /// degenerate tight-budget mode where the pin share is consumed by the
  /// prefetch in-flight window).
  int64_t spill_unpinned_reads = 0;
  /// Highest per-node ledger usage observed during the run; always <=
  /// ExecutorOptions::memory_budget_bytes when budgeted.
  int64_t memory_peak_bytes = 0;

  // Transient-machine losses over the plan (sums of the jobs'
  // JobStats revocation fields; all zero without an injected
  // RevocationController — see cloud/revocation.h).
  int revoked_machines = 0;
  int rescheduled_tasks = 0;
  double revoked_wasted_seconds = 0.0;

  /// Metrics recorded during this run: the exec.* counters mirroring the
  /// fields above come from a per-run registry (exact even when other
  /// plans run concurrently against the same shared registry), while
  /// engine.*/dfs.* names are the shared registry's delta across Run()
  /// (best-effort under concurrency). FormatPlanStats reads its
  /// cache/locality figures from here.
  MetricsSnapshot metrics;
};

/// Drives a PhysicalPlan through an Engine, job by job. The same executor
/// serves both real execution (validation, small scales) and simulated
/// execution (cluster-scale what-if runs and the optimizer's predictor),
/// selected by ExecutorOptions::real_mode and the Engine implementation.
///
/// Run is safe to call concurrently (same or different Executor instances
/// over one shared engine/store): all per-run state lives on the stack,
/// exec.* deltas are scoped to a per-run registry, and the engines
/// arbitrate slots through ExecutorOptions::slot_pool. The per-job cache
/// deltas in JobRecord::stats are best-effort under concurrency (the
/// engine's cache counters are shared).
class Executor {
 public:
  /// All pointers are borrowed and must outlive the executor.
  Executor(TileStore* store, Engine* engine, const TileOpCostModel* cost,
           const ExecutorOptions& options);

  Result<PlanStats> Run(const PhysicalPlan& plan);

  const ExecutorOptions& options() const { return options_; }

  /// Dependency level of every job in `plan` (0-based): a job's level is
  /// one past the deepest producer of any matrix it reads. Exposed for
  /// tests and plan inspection.
  static std::vector<int> JobLevels(const PhysicalPlan& plan);

 private:
  /// Trace bookkeeping around one engine RunJob call.
  struct JobTraceScope {
    Tracer* tracer = nullptr;
    int64_t job_id = 0;
    double offset_before = 0.0;
  };

  /// Runs the plan's jobs in scheduling rounds: one job per round, or one
  /// dependency level per round under parallelize_independent_jobs.
  /// `memory_budget` is the run's ledger group (real mode); `spill_source`
  /// is the same group when the run is budgeted and null otherwise, so
  /// only budgeted runs fold exec.spill.* counters into their JobStats.
  Result<PlanStats> RunRounds(const PhysicalPlan& plan,
                              MetricsRegistry* run_metrics,
                              StealDomain* steal,
                              MemoryBudgetGroup* memory_budget,
                              const MemoryBudgetGroup* spill_source);
  Status DropTemporaries(const PhysicalPlan& plan);

  /// Status::Cancelled when options_.cancel has flipped, OK otherwise.
  Status CheckCancelled() const;

  /// Stamps the plan identity / slot pool / cancel flag / trace parent
  /// onto a job spec about to be handed to the engine.
  void TagJobSpec(JobSpec* spec, int64_t trace_parent) const;

  /// Shared Build inputs, including the engine's node-cache budget so the
  /// declared task costs model the cache the engine actually has, and the
  /// per-run memory-budget group in real mode.
  BuildContext MakeBuildContext(MemoryBudgetGroup* memory_budget) const;

  /// Bytes of the per-node budget standing behind the engine's tile cache
  /// (0 when caching is off).
  int64_t CacheReserveBytes() const;

  /// Opens the job span (after a sim-mode startup span) so the engine's
  /// task spans nest under it.
  JobTraceScope BeginJobTrace(const std::string& name) const;

  /// Closes the job span. If the engine did not advance the tracer's
  /// timeline (it has no tracer wired), advances it by the job makespan so
  /// later jobs still stack correctly.
  void EndJobTrace(const JobTraceScope& scope, const JobStats& stats) const;

  /// Accumulates one job's stats into the plan totals and the exec.*
  /// metrics: the shared registry (global totals) and the per-run registry
  /// backing PlanStats::metrics.
  void FoldJobStats(const std::string& name, JobStats stats,
                    PlanStats* totals, MetricsRegistry* run_metrics);

  TileStore* store_;
  Engine* engine_;
  const TileOpCostModel* cost_;
  ExecutorOptions options_;
  MetricsRegistry* metrics_;            // options_.metrics or &owned_metrics_
  MetricsRegistry owned_metrics_;
};

}  // namespace cumulon

#endif  // CUMULON_EXEC_EXECUTOR_H_
