#include "cluster/real_engine.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "cloud/revocation.h"
#include "cluster/steal_domain.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/task_io_stats.h"
#include "sched/slot_pool.h"

namespace cumulon {

RealEngine::RealEngine(const ClusterConfig& config,
                       const RealEngineOptions& options)
    : config_(config), options_(options) {
  int threads = options_.max_threads > 0
                    ? std::min(options_.max_threads, config_.total_slots())
                    : config_.total_slots();
  threads = std::max(threads, 1);
  pool_ = std::make_unique<ThreadPool>(threads);
  if (options_.enable_tile_cache) {
    const int64_t bytes =
        options_.cache_bytes_per_node > 0
            ? options_.cache_bytes_per_node
            : NodeTileCacheBudget(config_.machine.memory_bytes(),
                                  config_.slots_per_machine,
                                  kSlotMemoryFraction);
    caches_ = std::make_unique<TileCacheGroup>(config_.num_machines, bytes);
  }
}

std::vector<int> RealEngine::PlaceTasks(const JobSpec& job) const {
  const int machines = config_.num_machines;
  std::vector<int> placement(job.tasks.size());
  if (!options_.locality_aware) {
    for (size_t i = 0; i < job.tasks.size(); ++i) {
      placement[i] = static_cast<int>(i) % machines;
    }
    return placement;
  }
  // A machine may take at most its balanced share of the job (its slots'
  // worth per wave, i.e. tasks/machines rounded up) before locality stops
  // justifying the skew; beyond that, or without preferences, assignment
  // falls back to the task-index round-robin.
  const int64_t cap =
      (static_cast<int64_t>(job.tasks.size()) + machines - 1) / machines;
  std::vector<int64_t> load(machines, 0);
  for (size_t i = 0; i < job.tasks.size(); ++i) {
    const Task& task = job.tasks[i];
    int chosen = -1;
    for (int mch : task.preferred_machines) {
      if (mch < 0 || mch >= machines || load[mch] >= cap) continue;
      if (chosen < 0 || load[mch] < load[chosen]) chosen = mch;
    }
    if (chosen < 0) chosen = static_cast<int>(i) % machines;
    placement[i] = chosen;
    ++load[chosen];
  }
  return placement;
}

Result<JobStats> RealEngine::RunJob(const JobSpec& job) {
  JobStats stats;
  stats.num_tasks = static_cast<int>(job.tasks.size());
  stats.waves = stats.num_tasks == 0
                    ? 0
                    : (stats.num_tasks + config_.total_slots() - 1) /
                          config_.total_slots();
  stats.task_runs.resize(job.tasks.size());

  const std::vector<int> placement = PlaceTasks(job);

  Tracer* tracer =
      options_.tracer != nullptr ? options_.tracer : GlobalTracer();
  // Spans of this job start after everything already on the timeline; the
  // job stopwatch below restarts at 0.
  const double trace_t0 = tracer != nullptr ? tracer->time_offset() : 0.0;

  Stopwatch job_clock;

  // Per-job completion latch and first-error slot, under one mutex: with
  // concurrent plans sharing the pool, ThreadPool::WaitIdle would wait for
  // *everyone's* tasks, so each RunJob counts down only its own. first_error
  // shares the latch's mutex so the final read below is under the same lock
  // the workers write through (it used to be read lock-free after the wait,
  // relying on the latch's ordering alone — exactly the pattern the
  // thread-safety annotations exist to reject).
  struct JobSync {
    Mutex mu{"RealEngine::JobSync::mu"};
    CondVar done_cv;
    size_t remaining CUMULON_GUARDED_BY(mu) = 0;
    Status first_error CUMULON_GUARDED_BY(mu);
    // Transient-machine losses observed by this job's workers.
    int revoked_machines CUMULON_GUARDED_BY(mu) = 0;
    int rescheduled_tasks CUMULON_GUARDED_BY(mu) = 0;
    double revoked_wasted_seconds CUMULON_GUARDED_BY(mu) = 0.0;
    std::vector<double> wasted_draws CUMULON_GUARDED_BY(mu);
  } sync;

  // One-shot consequences of a machine's revocation: drop its tile cache,
  // count it, and mark the instant on its trace lane. ClaimFired serializes
  // racing workers so the loss is observed exactly once per machine across
  // the controller's lifetime (not once per job).
  RevocationController* ctrl = options_.revocation;
  auto observe_revocation = [&](int machine) {
    if (!ctrl->ClaimFired(machine)) return;
    if (caches_ != nullptr) caches_->ClearNode(machine);
    {
      MutexLock lock(&sync.mu);
      ++sync.revoked_machines;
    }
    if (tracer != nullptr) {
      TraceSpan span;
      const std::string marker = StrCat("revoke:m", machine);
      span.name = job.plan_tag.empty() ? marker
                                       : StrCat(job.plan_tag, "/", marker);
      span.category = "revoke";
      span.parent_id = job.trace_parent_span;
      span.machine = machine;
      span.slot = 0;
      span.start_seconds = trace_t0 + job_clock.ElapsedSeconds();
      span.duration_seconds = 0.0;
      span.args = {{"machine", static_cast<double>(machine)}};
      if (job.plan_id >= 0) {
        span.args.emplace_back("plan", static_cast<double>(job.plan_id));
      }
      tracer->AddSpan(std::move(span));
    }
  };

  // Work stealing: arm the per-job accounting before any task can start,
  // so helper drains submitted below don't observe a stale zero and exit.
  StealDomain* steal = job.steal_domain;
  if (steal != nullptr) steal->BeginJob(job.tasks.size(), trace_t0);

  bool cancelled = false;
  size_t submitted = 0;
  for (size_t i = 0; i < job.tasks.size(); ++i) {
    if (job.cancel != nullptr &&
        job.cancel->load(std::memory_order_relaxed)) {
      cancelled = true;
      break;
    }
    // Multi-tenant mode: lease one slot per in-flight task. This driver
    // thread blocks while the plan is at its share; workers never block.
    if (job.slot_pool != nullptr &&
        !job.slot_pool->Acquire(job.plan_id, job.cancel)) {
      cancelled = true;  // cancel flag flipped while waiting for a slot
      break;
    }
    const Task& task = job.tasks[i];
    const int machine = placement[i];
    TaskRunInfo* run = &stats.task_runs[i];
    run->machine = machine;
    if (!task.preferred_machines.empty()) {
      run->local = std::find(task.preferred_machines.begin(),
                             task.preferred_machines.end(),
                             machine) != task.preferred_machines.end();
      if (!run->local) ++stats.num_non_local_tasks;
    }
    stats.bytes_read += task.cost.bytes_read;
    stats.bytes_written += task.cost.bytes_written;
    stats.shuffle_bytes += task.cost.shuffle_bytes;
    {
      MutexLock lock(&sync.mu);
      ++sync.remaining;
    }
    ++submitted;
    pool_->Submit([&, run, machine = machine, tracer, trace_t0,
                   &task = task]() mutable {
      Stopwatch task_clock;
      run->start_seconds = job_clock.ElapsedSeconds();
      // Tasks are all submitted up front, so the time a task spent waiting
      // for a worker is its start offset within the job.
      run->slot = ThreadPool::CurrentWorkerIndex();
      // Thread-local I/O wait accounting: the task body (TileFuture::Await,
      // TaskTileReader sync reads) accumulates into it on this worker.
      TaskIoStats* io = TaskIoStats::Current();
      io->Reset();
      int attempts_used = 0;
      if (task.work) {
        Status st;
        const int attempts = std::max(options_.max_attempts, 1);
        int failures = 0;
        bool fleet_gone = false;
        for (;;) {
          // Never start an attempt on a machine the schedule has revoked:
          // relocate to a survivor first, observing each loss on the way.
          while (ctrl != nullptr &&
                 ctrl->IsRevokedAt(machine, ctrl->WallNowSeconds())) {
            observe_revocation(machine);
            const int next = ctrl->FallbackMachine(
                machine, config_.num_machines, ctrl->WallNowSeconds());
            if (next < 0) {
              fleet_gone = true;
              break;
            }
            machine = next;
          }
          if (fleet_gone) {
            st = Status::Internal(
                StrCat("task '", task.name,
                       "' has no machine to run on: whole fleet revoked"));
            break;
          }
          ++attempts_used;
          Stopwatch attempt_clock;
          st = task.work(machine);
          if (ctrl != nullptr &&
              ctrl->IsRevokedAt(machine, ctrl->WallNowSeconds())) {
            // The machine died while this attempt ran: the elapsed time is
            // revocation waste and the task reruns on a survivor (tile Puts
            // are overwrite-idempotent, so the rerun converges to the same
            // output). A loss is not a task failure — it burns no retry.
            const double wasted = attempt_clock.ElapsedSeconds();
            MutexLock lock(&sync.mu);
            ++sync.rescheduled_tasks;
            sync.revoked_wasted_seconds += wasted;
            sync.wasted_draws.push_back(wasted);
            continue;
          }
          if (st.ok()) break;
          if (++failures >= attempts) break;
        }
        run->machine = machine;
        if (!st.ok()) {
          MutexLock lock(&sync.mu);
          if (sync.first_error.ok()) {
            sync.first_error =
                fleet_gone
                    ? st
                    : Status(st.code(),
                             StrCat("task '", task.name, "' failed after ",
                                    attempts, " attempt(s): ", st.message()));
          }
        }
      }
      run->attempts = std::max(attempts_used, 1);
      run->duration_seconds = task_clock.ElapsedSeconds();
      run->stall_seconds = io->total_wait_seconds();
      if (tracer != nullptr) {
        TraceSpan span;
        span.name = job.plan_tag.empty()
                        ? task.name
                        : StrCat(job.plan_tag, "/", task.name);
        span.category = "task";
        span.parent_id = job.trace_parent_span;
        span.machine = machine;
        span.slot = run->slot;
        span.start_seconds = trace_t0 + run->start_seconds;
        span.duration_seconds = run->duration_seconds;
        span.args = {
            {"queue_wait_seconds", run->start_seconds},
            {"bytes_read", static_cast<double>(task.cost.bytes_read)},
            {"bytes_written", static_cast<double>(task.cost.bytes_written)},
            {"attempts", static_cast<double>(attempts_used)},
            {"stall_seconds", run->stall_seconds},
            {"local", run->local ? 1.0 : 0.0}};
        if (job.plan_id >= 0) {
          span.args.emplace_back("plan", static_cast<double>(job.plan_id));
        }
        tracer->AddSpan(std::move(span));
      }
      if (job.slot_pool != nullptr) job.slot_pool->Release(job.plan_id);
      if (job.steal_domain != nullptr) job.steal_domain->NoteTaskFinished();
      MutexLock lock(&sync.mu);
      if (--sync.remaining == 0) sync.done_cv.NotifyAll();
    });
  }
  if (steal != nullptr && cancelled) {
    steal->ReduceExpected(job.tasks.size() - submitted);
  }
  // Helper drains: one per pool worker, queued behind the tasks, so any
  // worker that runs out of tasks serves the remaining tasks' splits until
  // the job finishes. Skipped in multi-tenant mode (see JobSpec) — there,
  // stealing happens only between concurrently running tasks.
  if (steal != nullptr && job.slot_pool == nullptr && submitted > 0) {
    for (int h = 0; h < pool_->num_threads(); ++h) {
      {
        MutexLock lock(&sync.mu);
        ++sync.remaining;
      }
      pool_->Submit([&sync, steal]() {
        steal->HelpDrain();
        MutexLock lock(&sync.mu);
        if (--sync.remaining == 0) sync.done_cv.NotifyAll();
      });
    }
  }
  Status first_error;
  std::vector<double> wasted_draws;
  {
    MutexLock lock(&sync.mu);
    while (sync.remaining != 0) sync.done_cv.Wait(&sync.mu);
    first_error = sync.first_error;
    stats.revoked_machines = sync.revoked_machines;
    stats.rescheduled_tasks = sync.rescheduled_tasks;
    stats.revoked_wasted_seconds = sync.revoked_wasted_seconds;
    wasted_draws = std::move(sync.wasted_draws);
  }

  if (cancelled) {
    return Status::Cancelled(
        StrCat("job '", job.name, "' cancelled after ", submitted, " of ",
               job.tasks.size(), " tasks"));
  }
  if (!first_error.ok()) return first_error;

  stats.duration_seconds = job_clock.ElapsedSeconds();
  for (const TaskRunInfo& run : stats.task_runs) {
    stats.total_task_seconds += run.duration_seconds;
    stats.stall_seconds += run.stall_seconds;
  }
  if (tracer != nullptr) tracer->AdvanceTime(stats.duration_seconds);

  if (options_.metrics != nullptr) {
    MetricsRegistry* m = options_.metrics;
    m->counter("engine.jobs")->Increment();
    m->counter("engine.tasks")->Add(stats.num_tasks);
    m->counter("engine.tasks.nonlocal")->Add(stats.num_non_local_tasks);
    Histogram* task_seconds = m->histogram("engine.task.seconds");
    Histogram* queue_wait = m->histogram("engine.task.queue_wait_seconds");
    Histogram* stall = m->histogram("engine.task.stall_seconds");
    for (const TaskRunInfo& run : stats.task_runs) {
      task_seconds->Observe(run.duration_seconds);
      queue_wait->Observe(run.start_seconds);
      stall->Observe(run.stall_seconds);
    }
    if (stats.revoked_machines > 0 || stats.rescheduled_tasks > 0) {
      m->counter("cluster.revoked.machines")->Add(stats.revoked_machines);
      m->counter("cluster.revoked.tasks")->Add(stats.rescheduled_tasks);
      Histogram* wasted = m->histogram("cluster.revoked.wasted_seconds");
      for (double w : wasted_draws) wasted->Observe(w);
    }
  }
  return stats;
}

}  // namespace cumulon
