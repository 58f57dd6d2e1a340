#include "cluster/sim_engine.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <vector>

#include "cloud/revocation.h"
#include "common/logging.h"
#include "common/strings.h"
#include "cost/cost_model.h"
#include "sched/slot_pool.h"

namespace cumulon {

SimEngine::SimEngine(const ClusterConfig& config,
                     const SimEngineOptions& options)
    : config_(config), options_(options), rng_(options.seed) {
  CUMULON_CHECK_GT(config_.num_machines, 0);
  CUMULON_CHECK_GT(config_.slots_per_machine, 0);
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

double SimEngine::TaskDuration(const TaskCost& cost, bool local_read,
                               double* stall_seconds) const {
  const MachineProfile& m = config_.machine;
  const int s = config_.slots_per_machine;

  // Slots oversubscribing cores share them.
  const double cpu_slowdown =
      std::max(1.0, static_cast<double>(s) / m.cores);
  const double cpu =
      cost.cpu_seconds_ref / m.cpu_gflops * cpu_slowdown;

  // All slots of a machine share its disk and NIC; we charge each task the
  // worst-case 1/s share, which is what a fully loaded wave experiences.
  const double disk_bw = m.disk_bytes_per_sec() / s;
  const double net_bw = m.net_bytes_per_sec() / s;

  // Bytes expected from the node-local tile cache never touch disk or
  // NIC; only the residual miss bytes are charged below.
  const double uncached_read = static_cast<double>(
      std::max<int64_t>(cost.bytes_read - cost.bytes_read_cached, 0));
  double local_bytes, remote_bytes;
  if (local_read) {
    local_bytes = uncached_read;
    remote_bytes = 0.0;
  } else {
    local_bytes = options_.nonlocal_local_fraction * uncached_read;
    remote_bytes = uncached_read - local_bytes;
  }
  // Shuffle traffic always crosses the network; spills hit the local disk
  // exactly once (MapReduce-baseline cost fields).
  remote_bytes += static_cast<double>(cost.shuffle_bytes);
  const double read_time = local_bytes / disk_bw + remote_bytes / net_bw;

  // First replica to local disk, the rest pipelined over the network.
  const double extra_replicas =
      static_cast<double>(std::max(0, options_.replication - 1));
  const double write_time = cost.bytes_written / disk_bw +
                            extra_replicas * cost.bytes_written / net_bw +
                            cost.local_spill_bytes / disk_bw;

  // The prefetch pipeline overlaps DFS reads with compute; only the
  // residual read time extends the task. Startup and write-back are
  // serial either way.
  if (stall_seconds != nullptr) {
    *stall_seconds =
        ResidualStallSeconds(cpu, read_time, options_.io_overlap_fraction);
  }
  return options_.task_startup_seconds +
         PipelinedPhaseSeconds(cpu, read_time,
                               options_.io_overlap_fraction) +
         write_time;
}

int DrawTaskAttempts(Rng* rng, double failure_probability, int max_attempts) {
  int attempt = 1;
  while (rng->NextDouble() < failure_probability) {
    if (++attempt > max_attempts) return 0;
  }
  return attempt;
}

Result<JobStats> SimEngine::RunJob(const JobSpec& job) {
  // One simulated job at a time: concurrent plans' virtual clocks cannot
  // interleave, so runs serialize and contention is expressed through the
  // slot-share restriction below.
  MutexLock run_lock(&run_mu_);

  if (job.cancel != nullptr && job.cancel->load(std::memory_order_relaxed)) {
    return Status::Cancelled(StrCat("job '", job.name, "' cancelled"));
  }

  const int machines = config_.num_machines;
  int slots = config_.slots_per_machine;
  // Under a slot pool the plan only gets its fair share of the cluster;
  // model that as proportionally fewer slots per machine (at least one in
  // total, rounded up so a share never silently widens).
  if (job.slot_pool != nullptr) {
    const int allowed = std::clamp(job.slot_pool->FairShare(job.plan_id), 1,
                                   config_.total_slots());
    slots = std::max(1, (allowed + machines - 1) / machines);
  }

  Tracer* tracer =
      options_.tracer != nullptr ? options_.tracer : GlobalTracer();
  // Spans of this job start after everything already on the timeline; the
  // virtual clock below restarts at 0 for every job.
  const double trace_t0 = tracer != nullptr ? tracer->time_offset() : 0.0;

  // free_at[machine][slot] = virtual time the slot becomes available.
  std::vector<std::vector<double>> free_at(
      machines, std::vector<double>(slots, 0.0));

  JobStats stats;
  stats.num_tasks = static_cast<int>(job.tasks.size());
  stats.waves = stats.num_tasks == 0
                    ? 0
                    : (stats.num_tasks + config_.total_slots() - 1) /
                          config_.total_slots();
  stats.task_runs.reserve(job.tasks.size());

  // Job-relative death instant per machine under the injected revocation
  // schedule; +inf everywhere when no controller (or an empty schedule) is
  // set, which makes every eligibility test below vacuously true and keeps
  // the schedule bit-identical to the pre-revocation engine.
  RevocationController* ctrl = options_.revocation;
  std::vector<double> dead_at(machines, RevocationSchedule::kNever);
  if (ctrl != nullptr) {
    const double origin = ctrl->origin_seconds();
    for (int mch = 0; mch < machines; ++mch) {
      dead_at[mch] = ctrl->RevokedAtSeconds(mch) - origin;
    }
  }
  std::vector<int> kills_per_machine(machines, 0);
  std::vector<double> wasted_draws;

  // Earliest slot on `machine` that can still START work, i.e. whose
  // effective start max(free, ready_floor) precedes the machine's death.
  auto earliest_slot = [&](int machine, double ready_floor, int* slot_out,
                           double* time_out) {
    bool found = false;
    for (int i = 0; i < slots; ++i) {
      const double eff = std::max(free_at[machine][i], ready_floor);
      if (eff >= dead_at[machine]) continue;
      if (!found || eff < *time_out) {
        found = true;
        *slot_out = i;
        *time_out = eff;
      }
    }
    return found;
  };

  // Greedy placement over eligible slots: globally earliest, then delay
  // scheduling toward the task's preferred machines. `ready_floor` is 0 for
  // a first attempt and the kill instant for a revocation retry (the
  // scheduler only learns of the loss when the machine dies). False when
  // the whole fleet is dead.
  auto place = [&](const Task& task, double ready_floor, int* machine_out,
                   int* slot_out, bool* local_out) {
    int best_machine = -1, best_slot = -1;
    double best_time = std::numeric_limits<double>::infinity();
    for (int mch = 0; mch < machines; ++mch) {
      int sl = 0;
      double t = 0.0;
      if (!earliest_slot(mch, ready_floor, &sl, &t)) continue;
      if (t < best_time) {
        best_machine = mch;
        best_slot = sl;
        best_time = t;
      }
    }
    if (best_machine < 0) return false;

    int chosen_machine = best_machine;
    int chosen_slot = best_slot;
    bool local = true;
    if (!task.preferred_machines.empty()) {
      local = false;
      if (options_.locality_aware) {
        int pref_machine = -1, pref_slot = -1;
        double pref_time = std::numeric_limits<double>::infinity();
        for (int mch : task.preferred_machines) {
          if (mch < 0 || mch >= machines) continue;
          int sl = 0;
          double t = 0.0;
          if (!earliest_slot(mch, ready_floor, &sl, &t)) continue;
          if (t < pref_time) {
            pref_time = t;
            pref_machine = mch;
            pref_slot = sl;
          }
        }
        if (pref_machine >= 0 &&
            pref_time <= best_time + options_.locality_delay_seconds) {
          chosen_machine = pref_machine;
          chosen_slot = pref_slot;
          local = true;
        }
      }
      if (!local) {
        // The scheduler may still have gotten lucky.
        local = std::find(task.preferred_machines.begin(),
                          task.preferred_machines.end(),
                          chosen_machine) != task.preferred_machines.end();
      }
    }
    *machine_out = chosen_machine;
    *slot_out = chosen_slot;
    *local_out = local;
    return true;
  };

  for (const Task& task : job.tasks) {
    if (job.cancel != nullptr &&
        job.cancel->load(std::memory_order_relaxed)) {
      return Status::Cancelled(
          StrCat("job '", job.name, "' cancelled mid-schedule"));
    }

    int chosen_machine = 0, chosen_slot = 0;
    bool local = true;
    if (!place(task, 0.0, &chosen_machine, &chosen_slot, &local)) {
      return Status::Internal(
          StrCat("task '", task.name,
                 "' has no machine to run on: whole fleet revoked"));
    }

    double modeled_stall = 0.0;
    const double base_duration =
        TaskDuration(task.cost, local, &modeled_stall);
    double duration = base_duration;
    if (options_.noise_sigma > 0.0) {
      // Lognormal with mean 1: mu = -sigma^2/2.
      const double sigma = options_.noise_sigma;
      duration *= rng_.NextLogNormal(-0.5 * sigma * sigma, sigma);
      if (options_.speculative_execution) {
        // Backup attempt launched after the task overruns its expectation;
        // the first finisher wins.
        const double backup = base_duration + options_.task_startup_seconds +
                              base_duration *
                                  rng_.NextLogNormal(-0.5 * sigma * sigma,
                                                     sigma);
        duration = std::min(duration, backup);
      }
    }

    // Failed attempts waste their whole duration and rerun.
    int attempts = 1;
    if (options_.task_failure_probability > 0.0) {
      attempts = DrawTaskAttempts(&rng_, options_.task_failure_probability,
                                  options_.max_task_attempts);
      if (attempts == 0) {
        return Status::Internal(
            StrCat("task '", task.name, "' failed ",
                   options_.max_task_attempts, " attempts"));
      }
      duration *= attempts;
    }

    // Noise and failure rerolls are a multiplier on the modeled duration;
    // preserve it across revocation re-placements so the task keeps its
    // drawn fate without consuming new randomness.
    const double ratio = base_duration > 0.0 ? duration / base_duration : 1.0;

    // Commit the attempt, or — when its span crosses the machine's death —
    // kill it at the instant, charge the elapsed time as waste, and re-place
    // on a surviving machine. The retry cannot start before the kill.
    double ready_floor = 0.0;
    double start;
    for (;;) {
      start = std::max(free_at[chosen_machine][chosen_slot], ready_floor);
      if (start + duration <= dead_at[chosen_machine]) break;
      const double kill_time = dead_at[chosen_machine];
      const double wasted = kill_time - start;
      free_at[chosen_machine][chosen_slot] = kill_time;
      ++stats.rescheduled_tasks;
      stats.revoked_wasted_seconds += wasted;
      stats.total_task_seconds += wasted;
      wasted_draws.push_back(wasted);
      ++kills_per_machine[chosen_machine];
      ++attempts;
      ready_floor = kill_time;
      if (!place(task, ready_floor, &chosen_machine, &chosen_slot, &local)) {
        return Status::Internal(
            StrCat("task '", task.name,
                   "' has no machine to run on: whole fleet revoked"));
      }
      duration = TaskDuration(task.cost, local, &modeled_stall) * ratio;
    }
    free_at[chosen_machine][chosen_slot] = start + duration;

    stats.total_task_seconds += duration;
    stats.bytes_read += task.cost.bytes_read;
    stats.bytes_written += task.cost.bytes_written;
    stats.shuffle_bytes += task.cost.shuffle_bytes;
    stats.bytes_read_cached += task.cost.bytes_read_cached;
    if (!local) ++stats.num_non_local_tasks;
    stats.stall_seconds += modeled_stall;
    TaskRunInfo run;
    run.machine = chosen_machine;
    run.slot = chosen_slot;
    run.start_seconds = start;
    run.duration_seconds = duration;
    run.local = local;
    run.stall_seconds = modeled_stall;
    run.attempts = std::max(attempts, 1);
    stats.task_runs.push_back(run);

    if (tracer != nullptr) {
      TraceSpan span;
      span.name = job.plan_tag.empty() ? task.name
                                       : StrCat(job.plan_tag, "/", task.name);
      span.category = "task";
      span.parent_id = job.trace_parent_span;
      span.machine = chosen_machine;
      span.slot = chosen_slot;
      span.start_seconds = trace_t0 + start;
      span.duration_seconds = duration;
      // The slot was idle until `start`, so in a job submitted at virtual
      // time 0 the start time IS the task's queue wait.
      span.args = {{"queue_wait_seconds", start},
                   {"bytes_read", static_cast<double>(task.cost.bytes_read)},
                   {"bytes_written",
                    static_cast<double>(task.cost.bytes_written)},
                   {"bytes_read_cached",
                    static_cast<double>(task.cost.bytes_read_cached)},
                   {"shuffle_bytes",
                    static_cast<double>(task.cost.shuffle_bytes)},
                   {"stall_seconds", modeled_stall},
                   {"local", local ? 1.0 : 0.0}};
      if (run.attempts > 1) {
        span.args.emplace_back("attempts", static_cast<double>(run.attempts));
      }
      if (job.plan_id >= 0) {
        span.args.emplace_back("plan", static_cast<double>(job.plan_id));
      }
      tracer->AddSpan(std::move(span));
    }
  }

  double makespan = 0.0;
  for (const auto& machine_slots : free_at) {
    for (double t : machine_slots) makespan = std::max(makespan, t);
  }
  stats.duration_seconds = makespan;

  if (ctrl != nullptr) {
    // Observe every revocation whose instant fell inside this job's window
    // (including instants an earlier, shorter job slid past): drop the dead
    // node's tile cache, bump the loss stats, and emit a zero-width
    // "revoke" marker on the machine's lane. ClaimFired gates each machine
    // to exactly one observation across the controller's lifetime.
    for (int mch = 0; mch < machines; ++mch) {
      if (dead_at[mch] > makespan) continue;  // not lost yet (or never)
      if (!ctrl->ClaimFired(mch)) continue;   // an earlier job observed it
      ++stats.revoked_machines;
      if (caches_ != nullptr) caches_->ClearNode(mch);
      if (tracer != nullptr) {
        TraceSpan span;
        const std::string marker = StrCat("revoke:m", mch);
        span.name = job.plan_tag.empty()
                        ? marker
                        : StrCat(job.plan_tag, "/", marker);
        span.category = "revoke";
        span.parent_id = job.trace_parent_span;
        span.machine = mch;
        span.slot = 0;
        span.start_seconds = trace_t0 + std::max(dead_at[mch], 0.0);
        span.duration_seconds = 0.0;
        span.args = {{"machine", static_cast<double>(mch)},
                     {"tasks_rescheduled",
                      static_cast<double>(kills_per_machine[mch])}};
        if (job.plan_id >= 0) {
          span.args.emplace_back("plan", static_cast<double>(job.plan_id));
        }
        tracer->AddSpan(std::move(span));
      }
    }
    // Schedule time is cumulative engine-busy time: the next job's virtual
    // clock starts where this one's makespan left off.
    ctrl->AdvanceOrigin(makespan);
  }

  if (tracer != nullptr) tracer->AdvanceTime(makespan);

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
