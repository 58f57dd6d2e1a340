#ifndef CUMULON_CLUSTER_STEAL_DOMAIN_H_
#define CUMULON_CLUSTER_STEAL_DOMAIN_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/stopwatch.h"

/// Intra-job split-level work stealing.
///
/// A Cumulon task typically produces several independent block-splits (one
/// output tile, one stripe, ...). Without stealing, a task whose splits are
/// slow — cache-cold inputs, a large k range — stretches the job's tail
/// while other workers idle after finishing their own tasks. With a
/// StealDomain attached (ExecutorOptions::enable_work_stealing), task
/// bodies enqueue their splits into a per-slot deque and execute them via
/// TaskSplitScope::RunAndWait; any other participant — a task out of its
/// own work, or one of the engine's helper drains on idle workers — steals
/// from the tail of a busy slot's deque.
///
/// Invariants (see DESIGN.md "Kernel architecture"):
///  - Owners push and pop at the deque head (LIFO locality in their own
///    enqueue order); thieves pop at the tail — head and tail contention
///    never meet on the same split except when one remains.
///  - Each split is executed exactly once, by whoever dequeued it; its
///    completion is recorded on the owning scope's latch, so RunAndWait
///    returns only after every one of its splits ran (possibly elsewhere).
///  - No lock is held while a split body runs, and no two StealDomain locks
///    are ever held at once (deque mutexes, the domain mutex and each
///    scope's latch mutex are acquired strictly one at a time), so the
///    debug lock-order validator sees no edges from this subsystem.
///  - Results are unaffected by who runs a split: splits of one task write
///    disjoint output tiles.

namespace cumulon {

class Tracer;
class TaskSplitScope;

/// Counters exposed as `exec.steal.*` (docs/observability.md).
struct StealDomainStats {
  int64_t splits_enqueued = 0;  // splits published to deques
  int64_t splits_stolen = 0;    // executed by a non-owner participant
  int64_t steal_attempts = 0;   // tail-pop scans (successful or not)
};

/// One stealing scope, shared by every task of an executor run. The
/// executor owns it (shared_ptr captured by task closures); the engine
/// borrows it through JobSpec::steal_domain for per-job accounting and
/// helper drains.
class StealDomain {
 public:
  /// num_slots: per-slot deque count, normally the engine's worker-thread
  /// count. Participants on unknown threads are mapped onto [0, num_slots).
  /// tracer: when non-null, stolen splits emit spans with category "steal".
  explicit StealDomain(int num_slots, Tracer* tracer = nullptr);

  StealDomain(const StealDomain&) = delete;
  StealDomain& operator=(const StealDomain&) = delete;

  /// Engine-side job accounting (RealEngine::RunJob): BeginJob arms the
  /// helper-drain exit condition with the number of tasks about to be
  /// submitted and re-anchors the trace clock; every finished task calls
  /// NoteTaskFinished; a cancelled submission loop returns the difference
  /// via ReduceExpected. One job at a time per domain (the executor runs
  /// jobs of a plan sequentially).
  void BeginJob(size_t expected_tasks, double trace_time_offset = 0.0);
  void NoteTaskFinished();
  void ReduceExpected(size_t not_submitted);

  /// Runs any available splits (own deque first, then steals) until every
  /// task of the current job has finished. Submitted by the engine on each
  /// pool worker so that workers with no tasks left still serve the
  /// stragglers' splits.
  void HelpDrain();

  StealDomainStats stats() const;

 private:
  friend class TaskSplitScope;

  /// A published block-split. `scope` outlives the split: RunAndWait only
  /// returns once its latch saw every split complete.
  struct Split {
    std::function<Status()> fn;
    TaskSplitScope* scope = nullptr;
  };

  struct SlotDeque {
    Mutex mu{"StealDomain::SlotDeque::mu"};
    std::deque<Split> dq CUMULON_GUARDED_BY(mu);
  };

  /// Maps the calling thread onto a deque slot (pool worker index when on a
  /// pool, round-robin fallback otherwise).
  int CurrentSlot();

  void Publish(int slot, std::vector<Split>* splits);
  bool TryPopLocal(int slot, Split* out);
  bool TrySteal(int thief_slot, Split* out);

  /// Executes a split and records completion on its scope's latch. Emits a
  /// "steal" trace span when the executing slot is not the owner's.
  void RunSplit(Split split, int exec_slot);

  const int num_slots_;
  Tracer* const tracer_;
  std::vector<std::unique_ptr<SlotDeque>> slots_;

  std::atomic<int64_t> splits_enqueued_{0};
  std::atomic<int64_t> splits_stolen_{0};
  std::atomic<int64_t> steal_attempts_{0};
  std::atomic<int64_t> fallback_slot_{0};

  Mutex mu_{"StealDomain::mu"};
  CondVar activity_cv_;
  size_t tasks_remaining_ CUMULON_GUARDED_BY(mu_) = 0;

  /// Trace clock for stolen-split spans: BeginJob anchors offset_ at the
  /// tracer's current offset and restarts clock_, mirroring the engine's
  /// per-job span timing.
  Stopwatch clock_;
  std::atomic<double> trace_offset_{0.0};
};

/// Per-task split collector, the stealing branch of the task bodies' one
/// split runner (RunTaskUnits in exec/physical_job.cc):
///
///   TaskSplitScope scope(ctx.steal, task_name, machine);
///   for (...) scope.Add([=]() -> Status { ... one block-split ... });
///   return scope.RunAndWait();
///
/// Without a domain there is no scope: the runner runs the splits itself.
class TaskSplitScope {
 public:
  /// `domain` is borrowed and must be non-null.
  TaskSplitScope(StealDomain* domain, std::string task_name, int machine);
  ~TaskSplitScope();

  TaskSplitScope(const TaskSplitScope&) = delete;
  TaskSplitScope& operator=(const TaskSplitScope&) = delete;

  /// Buffers one split.
  void Add(std::function<Status()> fn);

  /// Publishes buffered splits, participates (own deque first, stealing
  /// while waiting), and returns the first split error once all this
  /// scope's splits have executed.
  Status RunAndWait();

 private:
  friend class StealDomain;

  StealDomain* const domain_;
  const std::string task_name_;
  const int machine_;
  int slot_ = 0;

  std::vector<StealDomain::Split> buffered_;

  Mutex latch_mu_{"TaskSplitScope::latch_mu"};
  CondVar latch_cv_;
  size_t remaining_ CUMULON_GUARDED_BY(latch_mu_) = 0;
  Status first_error_ CUMULON_GUARDED_BY(latch_mu_);
};

}  // namespace cumulon

#endif  // CUMULON_CLUSTER_STEAL_DOMAIN_H_
