#include "exec/executor.h"

#include <algorithm>
#include <map>
#include <memory>

#include "cluster/steal_domain.h"
#include "common/logging.h"
#include "common/strings.h"
#include "sched/slot_pool.h"

namespace cumulon {

namespace {

/// The counter sources whose deltas across one scheduling round land in the
/// round's JobStats: the engine's tile caches, the steal domain and the
/// memory-budget group. A source is null when its feature is off (the
/// memory-budget group when unbudgeted), and its JobStats fields then keep
/// what the engine reported.
struct RoundCounters {
  RoundCounters(TileCacheGroup* caches, const StealDomain* steal,
                const MemoryBudgetGroup* memory_budget)
      : caches(caches), steal(steal), memory_budget(memory_budget) {
    if (caches != nullptr) cache_before = caches->TotalStats();
    if (steal != nullptr) steal_before = steal->stats();
    if (memory_budget != nullptr) {
      spill_before = memory_budget->TotalCounters();
    }
  }

  /// Folds the deltas since construction into `stats`.
  void FoldInto(bool real_mode, JobStats* stats) const {
    if (caches != nullptr) {
      const TileCacheStats after = caches->TotalStats();
      stats->cache_hits = after.hits - cache_before.hits;
      stats->cache_misses = after.misses - cache_before.misses;
      // Sim-mode cached bytes come from the declared task costs; real-mode
      // ones are measured at the cache.
      if (real_mode) {
        stats->bytes_read_cached = after.hit_bytes - cache_before.hit_bytes;
      }
    }
    if (steal != nullptr) {
      const StealDomainStats after = steal->stats();
      stats->splits_enqueued =
          after.splits_enqueued - steal_before.splits_enqueued;
      stats->splits_stolen = after.splits_stolen - steal_before.splits_stolen;
      stats->steal_attempts =
          after.steal_attempts - steal_before.steal_attempts;
    }
    if (memory_budget != nullptr) {
      const MemoryBudget::Counters after = memory_budget->TotalCounters();
      stats->spill_evictions = after.evictions - spill_before.evictions;
      stats->spill_evicted_bytes =
          after.evicted_bytes - spill_before.evicted_bytes;
      stats->spill_refetches = after.refetches - spill_before.refetches;
      stats->spill_refetch_bytes =
          after.refetch_bytes - spill_before.refetch_bytes;
      stats->spill_unpinned_reads =
          after.unpinned_reads - spill_before.unpinned_reads;
    }
  }

  TileCacheGroup* const caches;
  const StealDomain* const steal;
  const MemoryBudgetGroup* const memory_budget;
  TileCacheStats cache_before;
  StealDomainStats steal_before;
  MemoryBudget::Counters spill_before;
};

}  // namespace

Executor::Executor(TileStore* store, Engine* engine,
                   const TileOpCostModel* cost, const ExecutorOptions& options)
    : store_(store),
      engine_(engine),
      cost_(cost),
      options_(options),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : &owned_metrics_) {
  CUMULON_CHECK(store_ != nullptr);
  CUMULON_CHECK(engine_ != nullptr);
  CUMULON_CHECK(cost_ != nullptr);
}

std::vector<int> Executor::JobLevels(const PhysicalPlan& plan) {
  // Producer of each matrix name. Names are unique per plan (lowering
  // versions reassigned targets), so one writer per matrix.
  std::map<std::string, size_t> producer;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    for (const std::string& out : plan.jobs[j]->OutputMatrices()) {
      producer.emplace(out, j);
    }
  }
  std::vector<int> levels(plan.jobs.size(), 0);
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    int level = 0;
    for (const std::string& in : plan.jobs[j]->InputMatrices()) {
      auto it = producer.find(in);
      // Plans are emitted in dependency order, so a producer later in the
      // list (a later version writer) is not a dependency of this job.
      if (it != producer.end() && it->second < j) {
        level = std::max(level, levels[it->second] + 1);
      }
    }
    levels[j] = level;
  }
  return levels;
}

Status Executor::DropTemporaries(const PhysicalPlan& plan) {
  if (!options_.drop_temporaries) return Status::OK();
  for (const std::string& temp : plan.temporaries) {
    CUMULON_RETURN_IF_ERROR(store_->DeleteMatrix(temp));
  }
  return Status::OK();
}

Status Executor::CheckCancelled() const {
  if (options_.cancel != nullptr &&
      options_.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled(
        StrCat("plan '", options_.plan_tag, "' cancelled"));
  }
  return Status::OK();
}

void Executor::TagJobSpec(JobSpec* spec, int64_t trace_parent) const {
  spec->plan_id = options_.plan_id;
  spec->plan_tag = options_.plan_tag;
  spec->slot_pool = options_.slot_pool;
  spec->cancel = options_.cancel;
  spec->trace_parent_span = trace_parent;
}

Result<PlanStats> Executor::Run(const PhysicalPlan& plan) {
  // exec.* counters of this run go to a private registry as well as the
  // shared one: with concurrent Run calls the shared before/after delta
  // would fold other plans' activity in, so PlanStats::metrics takes its
  // exec.* values from the per-run registry instead.
  MetricsRegistry run_metrics;
  const MetricsSnapshot before = metrics_->Snapshot();
  // One stealing scope per run: task closures capture a borrowed pointer,
  // and every closure has finished (the engine's completion latch) before
  // Run returns, so the domain safely lives on this frame. Real mode only —
  // sim tasks have no work to split.
  std::unique_ptr<StealDomain> steal;
  if (options_.real_mode && options_.enable_work_stealing) {
    steal = std::make_unique<StealDomain>(
        engine_->config().total_slots(),
        options_.tracer != nullptr ? options_.tracer : GlobalTracer());
  }
  // One memory-budget group per real-mode run, on this frame for the same
  // lifetime reason as the steal domain; a budget <= 0 makes its ledgers
  // unlimited. The engine's tile cache takes a standing reservation on
  // every node ledger up front — the cache enforces its own LRU cap, so
  // charging its full budget keeps the ledger an upper bound on the node's
  // resident bytes without per-insert accounting.
  const bool budgeted = options_.real_mode && options_.memory_budget_bytes > 0;
  std::unique_ptr<MemoryBudgetGroup> memory_budget;
  if (options_.real_mode) {
    const int64_t cache_reserve = CacheReserveBytes();
    if (budgeted && cache_reserve >= options_.memory_budget_bytes) {
      return Status::InvalidArgument(StrCat(
          "memory_budget_bytes (", options_.memory_budget_bytes,
          ") does not cover the tile cache's per-node reservation (",
          cache_reserve, "); shrink the cache or raise the budget"));
    }
    memory_budget = std::make_unique<MemoryBudgetGroup>(
        engine_->config().num_machines, options_.memory_budget_bytes);
    for (int node = 0; node < memory_budget->num_nodes(); ++node) {
      CUMULON_CHECK(memory_budget->node(node)->TryAcquire(cache_reserve));
    }
  }
  CUMULON_ASSIGN_OR_RETURN(
      PlanStats stats,
      RunRounds(plan, &run_metrics, steal.get(), memory_budget.get(),
                budgeted ? memory_budget.get() : nullptr));
  if (TileCacheGroup* caches = engine_->tile_caches()) {
    const TileCacheStats totals = caches->TotalStats();
    metrics_->gauge("cache.resident_bytes")->Set(totals.resident_bytes);
    metrics_->gauge("cache.resident_tiles")->Set(totals.resident_tiles);
  }
  // An unlimited ledger never spills, so unbudgeted runs report no peak
  // and no mem.budget.* gauges: their metric set stays the resident one.
  if (budgeted) {
    stats.memory_peak_bytes = memory_budget->MaxPeakBytes();
    metrics_->gauge("mem.budget.bytes")
        ->Set(options_.memory_budget_bytes);
    metrics_->gauge("mem.budget.peak_bytes")->Set(stats.memory_peak_bytes);
    metrics_->gauge("mem.budget.cache_reserved_bytes")
        ->Set(CacheReserveBytes());
  }
  stats.metrics = SnapshotDelta(before, metrics_->Snapshot());
  // Replace the shared-delta exec.* counters with the per-run exact ones.
  for (auto it = stats.metrics.counters.begin();
       it != stats.metrics.counters.end();) {
    if (it->first.rfind("exec.", 0) == 0) {
      it = stats.metrics.counters.erase(it);
    } else {
      ++it;
    }
  }
  for (const auto& [name, value] : run_metrics.Snapshot().counters) {
    stats.metrics.counters[name] = value;
  }
  return stats;
}

int64_t Executor::CacheReserveBytes() const {
  TileCacheGroup* caches = engine_->tile_caches();
  return caches != nullptr ? caches->bytes_per_node() : 0;
}

BuildContext Executor::MakeBuildContext(
    MemoryBudgetGroup* memory_budget) const {
  BuildContext ctx;
  ctx.store = store_;
  ctx.cost = cost_;
  ctx.attach_work = options_.real_mode;
  ctx.query_locality = options_.query_locality;
  if (options_.real_mode) {
    ctx.prefetch_budget_bytes = options_.prefetch_budget_bytes;
  }
  if (TileCacheGroup* caches = engine_->tile_caches()) {
    ctx.node_cache_bytes = caches->bytes_per_node();
    ctx.cache_nodes = engine_->config().num_machines;
  }
  // task_pin_bytes feeds two consumers: real-mode task readers pin against
  // it, and the declared-cost streaming term predicts refetch reads from it
  // — so it is derived from the budget in both modes (unlimited when
  // unbudgeted), while the ledger group itself exists only in real mode.
  if (options_.memory_budget_bytes > 0) {
    const int slots = std::max(engine_->config().slots_per_machine, 1);
    ctx.task_pin_bytes = std::max<int64_t>(
        (options_.memory_budget_bytes - CacheReserveBytes()) / slots, 0);
  }
  ctx.memory_budget = memory_budget;
  return ctx;
}

Executor::JobTraceScope Executor::BeginJobTrace(
    const std::string& name) const {
  JobTraceScope scope;
  scope.tracer =
      options_.tracer != nullptr ? options_.tracer : GlobalTracer();
  if (scope.tracer == nullptr) return scope;
  // Concurrent plans render on one driver lane each, keyed by plan id;
  // serial runs keep the classic lane 0.
  const int lane =
      options_.plan_id > 0 ? static_cast<int>(options_.plan_id) : 0;
  // Sim mode charges every job a scheduling/setup latency before any task
  // starts; putting it on the timeline keeps the trace's total span equal
  // to the predicted plan time. Real mode never waits it out, so its
  // timeline carries only measured execution.
  if (!options_.real_mode && options_.job_startup_seconds > 0.0) {
    TraceSpan startup;
    startup.name = options_.plan_tag.empty()
                       ? std::string("job startup")
                       : StrCat(options_.plan_tag, "/job startup");
    startup.category = "startup";
    startup.parent_id = -1;  // never under another plan's open job
    startup.machine = -1;
    startup.slot = lane;
    startup.start_seconds = scope.tracer->time_offset();
    startup.duration_seconds = options_.job_startup_seconds;
    scope.tracer->AdvanceTime(options_.job_startup_seconds);
    scope.tracer->AddSpan(std::move(startup));
  }
  scope.job_id = scope.tracer->BeginJob(
      options_.plan_tag.empty() ? name : StrCat(options_.plan_tag, "/", name),
      lane);
  scope.offset_before = scope.tracer->time_offset();
  return scope;
}

void Executor::EndJobTrace(const JobTraceScope& scope,
                           const JobStats& stats) const {
  if (scope.tracer == nullptr) return;
  if (scope.tracer->time_offset() <= scope.offset_before) {
    scope.tracer->AdvanceTime(stats.duration_seconds);
  }
  scope.tracer->EndJob(scope.job_id);
}

void Executor::FoldJobStats(const std::string& name, JobStats stats,
                            PlanStats* totals,
                            MetricsRegistry* run_metrics) {
  totals->total_seconds +=
      stats.duration_seconds + options_.job_startup_seconds;
  totals->bytes_read += stats.bytes_read;
  totals->bytes_written += stats.bytes_written;
  totals->total_tasks += stats.num_tasks;
  totals->non_local_tasks += stats.num_non_local_tasks;
  totals->cache_hits += stats.cache_hits;
  totals->cache_misses += stats.cache_misses;
  totals->bytes_read_cached += stats.bytes_read_cached;
  totals->stall_seconds += stats.stall_seconds;
  totals->spill_evictions += stats.spill_evictions;
  totals->spill_evicted_bytes += stats.spill_evicted_bytes;
  totals->spill_refetches += stats.spill_refetches;
  totals->spill_refetch_bytes += stats.spill_refetch_bytes;
  totals->spill_unpinned_reads += stats.spill_unpinned_reads;
  totals->revoked_machines += stats.revoked_machines;
  totals->rescheduled_tasks += stats.rescheduled_tasks;
  totals->revoked_wasted_seconds += stats.revoked_wasted_seconds;

  // Every exec.* counter goes to the shared registry (global totals) and
  // the per-run registry (PlanStats::metrics, exact per plan).
  auto add = [&](const char* metric, int64_t delta) {
    metrics_->counter(metric)->Add(delta);
    run_metrics->counter(metric)->Add(delta);
  };
  add("exec.jobs", 1);
  add("exec.tasks", stats.num_tasks);
  add("exec.tasks.nonlocal", stats.num_non_local_tasks);
  add("exec.bytes.read", stats.bytes_read);
  add("exec.bytes.written", stats.bytes_written);
  add("exec.bytes.shuffle", stats.shuffle_bytes);
  add("exec.cache.hits", stats.cache_hits);
  add("exec.cache.misses", stats.cache_misses);
  add("exec.cache.hit_bytes", stats.bytes_read_cached);
  // Steal counters appear only when a stealing run actually published
  // splits, so non-stealing runs keep their exact historical metric set.
  if (stats.splits_enqueued > 0 || stats.steal_attempts > 0) {
    add("exec.steal.splits", stats.splits_enqueued);
    add("exec.steal.stolen", stats.splits_stolen);
    add("exec.steal.attempts", stats.steal_attempts);
  }
  // Spill counters likewise appear only when the job actually streamed
  // under budget pressure, so unbudgeted runs keep their exact historical
  // metric set.
  if (stats.spill_evictions > 0 || stats.spill_refetches > 0 ||
      stats.spill_unpinned_reads > 0) {
    add("exec.spill.evictions", stats.spill_evictions);
    add("exec.spill.bytes", stats.spill_evicted_bytes);
    add("exec.spill.refetches", stats.spill_refetches);
    add("exec.spill.refetch_bytes", stats.spill_refetch_bytes);
    add("exec.spill.unpinned", stats.spill_unpinned_reads);
  }

  totals->jobs.push_back(JobRecord{name, std::move(stats)});
}

Result<PlanStats> Executor::RunRounds(const PhysicalPlan& plan,
                                      MetricsRegistry* run_metrics,
                                      StealDomain* steal,
                                      MemoryBudgetGroup* memory_budget,
                                      const MemoryBudgetGroup* spill_source) {
  BuildContext ctx = MakeBuildContext(memory_budget);
  ctx.steal = steal;

  // Scheduling rounds: one job each, or, when parallelizing, one per
  // dependency level. A level's independent jobs merge into one round whose
  // tasks share the cluster's slots, which is how concurrently submitted
  // Hadoop jobs behave.
  const bool leveled = options_.parallelize_independent_jobs;
  std::vector<std::vector<size_t>> rounds;
  if (leveled) {
    const std::vector<int> levels = JobLevels(plan);
    for (size_t j = 0; j < levels.size(); ++j) {
      const size_t level = static_cast<size_t>(levels[j]);
      if (level >= rounds.size()) rounds.resize(level + 1);
      rounds[level].push_back(j);
    }
  } else {
    for (size_t j = 0; j < plan.jobs.size(); ++j) rounds.push_back({j});
  }

  PlanStats totals;
  for (size_t r = 0; r < rounds.size(); ++r) {
    CUMULON_RETURN_IF_ERROR(CheckCancelled());
    // A one-job round runs the job's spec as built; later jobs of a level
    // append their tasks to the first one's.
    JobSpec spec;
    std::vector<std::vector<TileOutput>> outputs;
    std::string name;
    for (size_t j : rounds[r]) {
      CUMULON_ASSIGN_OR_RETURN(BuiltJob built, plan.jobs[j]->Build(ctx));
      if (j == rounds[r].front()) {
        spec = std::move(built.spec);
        outputs = std::move(built.task_outputs);
      } else {
        for (Task& task : built.spec.tasks) {
          spec.tasks.push_back(std::move(task));
        }
        for (auto& outs : built.task_outputs) {
          outputs.push_back(std::move(outs));
        }
        name += "+";
      }
      name += plan.jobs[j]->name();
    }
    if (leveled) {
      name = StrCat("level", r, "(", name, ")");
      spec.name = name;
    }

    const RoundCounters counters(engine_->tile_caches(), steal, spill_source);
    const JobTraceScope trace = BeginJobTrace(name);
    TagJobSpec(&spec, trace.job_id);
    spec.steal_domain = steal;
    CUMULON_ASSIGN_OR_RETURN(JobStats stats, engine_->RunJob(spec));
    EndJobTrace(trace, stats);
    counters.FoldInto(options_.real_mode, &stats);

    if (!options_.real_mode) {
      // Register output tile placement so later jobs get correct locality.
      CUMULON_CHECK_EQ(outputs.size(), stats.task_runs.size());
      for (size_t t = 0; t < outputs.size(); ++t) {
        const int machine = stats.task_runs[t].machine;
        for (const TileOutput& out : outputs[t]) {
          CUMULON_RETURN_IF_ERROR(
              store_->PutMeta(out.matrix, out.id, out.bytes, machine));
        }
      }
    }
    FoldJobStats(name, std::move(stats), &totals, run_metrics);
  }

  CUMULON_RETURN_IF_ERROR(DropTemporaries(plan));
  return totals;
}

}  // namespace cumulon
