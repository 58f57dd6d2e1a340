#include "cluster/steal_domain.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "obs/trace.h"

namespace cumulon {

namespace {
/// Participants with nothing runnable re-check for stealable work at this
/// cadence while waiting; notifications wake them earlier for the exit
/// conditions (latch drained / job finished).
constexpr std::chrono::milliseconds kIdleRecheck{1};
}  // namespace

StealDomain::StealDomain(int num_slots, Tracer* tracer)
    : num_slots_(num_slots > 0 ? num_slots : 1), tracer_(tracer) {
  slots_.reserve(num_slots_);
  for (int i = 0; i < num_slots_; ++i) {
    slots_.push_back(std::make_unique<SlotDeque>());
  }
}

void StealDomain::BeginJob(size_t expected_tasks, double trace_time_offset) {
  {
    MutexLock lock(&mu_);
    tasks_remaining_ = expected_tasks;
  }
  trace_offset_.store(trace_time_offset, std::memory_order_relaxed);
  clock_.Restart();
}

void StealDomain::NoteTaskFinished() {
  MutexLock lock(&mu_);
  if (tasks_remaining_ > 0) --tasks_remaining_;
  if (tasks_remaining_ == 0) activity_cv_.NotifyAll();
}

void StealDomain::ReduceExpected(size_t not_submitted) {
  MutexLock lock(&mu_);
  tasks_remaining_ =
      tasks_remaining_ > not_submitted ? tasks_remaining_ - not_submitted : 0;
  if (tasks_remaining_ == 0) activity_cv_.NotifyAll();
}

int StealDomain::CurrentSlot() {
  const int worker = ThreadPool::CurrentWorkerIndex();
  if (worker >= 0) return worker % num_slots_;
  // Off-pool participant (tests, driver thread): spread over the slots.
  return static_cast<int>(
      fallback_slot_.fetch_add(1, std::memory_order_relaxed) % num_slots_);
}

void StealDomain::Publish(int slot, std::vector<Split>* splits) {
  if (splits->empty()) return;
  splits_enqueued_.fetch_add(static_cast<int64_t>(splits->size()),
                             std::memory_order_relaxed);
  {
    MutexLock lock(&slots_[slot]->mu);
    for (Split& s : *splits) {
      slots_[slot]->dq.push_front(std::move(s));
    }
  }
  splits->clear();
}

bool StealDomain::TryPopLocal(int slot, Split* out) {
  MutexLock lock(&slots_[slot]->mu);
  if (slots_[slot]->dq.empty()) return false;
  *out = std::move(slots_[slot]->dq.front());
  slots_[slot]->dq.pop_front();
  return true;
}

bool StealDomain::TrySteal(int thief_slot, Split* out) {
  steal_attempts_.fetch_add(1, std::memory_order_relaxed);
  for (int i = 1; i < num_slots_; ++i) {
    const int victim = (thief_slot + i) % num_slots_;
    MutexLock lock(&slots_[victim]->mu);
    if (slots_[victim]->dq.empty()) continue;
    *out = std::move(slots_[victim]->dq.back());
    slots_[victim]->dq.pop_back();
    return true;
  }
  return false;
}

void StealDomain::RunSplit(Split split, int exec_slot) {
  TaskSplitScope* scope = split.scope;
  const bool stolen = exec_slot != scope->slot_;
  const double t0 = clock_.ElapsedSeconds();
  Status st = split.fn();
  const double dt = clock_.ElapsedSeconds() - t0;
  if (stolen) {
    splits_stolen_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      TraceSpan span;
      span.name = StrCat(scope->task_name_, "/steal");
      span.category = "steal";
      span.machine = scope->machine_;
      span.slot = exec_slot;
      span.start_seconds =
          trace_offset_.load(std::memory_order_relaxed) + t0;
      span.duration_seconds = dt;
      span.args = {{"owner_slot", static_cast<double>(scope->slot_)}};
      tracer_->AddSpan(std::move(span));
    }
  }
  MutexLock lock(&scope->latch_mu_);
  if (!st.ok() && scope->first_error_.ok()) {
    scope->first_error_ = std::move(st);
  }
  CUMULON_CHECK_GT(scope->remaining_, 0u);
  if (--scope->remaining_ == 0) scope->latch_cv_.NotifyAll();
}

void StealDomain::HelpDrain() {
  const int slot = CurrentSlot();
  while (true) {
    Split s;
    if (TryPopLocal(slot, &s) || TrySteal(slot, &s)) {
      RunSplit(std::move(s), slot);
      continue;
    }
    MutexLock lock(&mu_);
    if (tasks_remaining_ == 0) return;
    activity_cv_.WaitFor(&mu_, kIdleRecheck);
    if (tasks_remaining_ == 0) return;
  }
}

StealDomainStats StealDomain::stats() const {
  StealDomainStats s;
  s.splits_enqueued = splits_enqueued_.load(std::memory_order_relaxed);
  s.splits_stolen = splits_stolen_.load(std::memory_order_relaxed);
  s.steal_attempts = steal_attempts_.load(std::memory_order_relaxed);
  return s;
}

TaskSplitScope::TaskSplitScope(StealDomain* domain, std::string task_name,
                               int machine)
    : domain_(domain), task_name_(std::move(task_name)), machine_(machine) {
  CUMULON_CHECK(domain_ != nullptr);
  slot_ = domain_->CurrentSlot();
}

TaskSplitScope::~TaskSplitScope() {
  // A scope that buffered splits but never ran them is a task-body bug
  // (the work would silently not happen). Published splits are always
  // drained before RunAndWait returns, so this can only fire on misuse.
  CUMULON_CHECK(buffered_.empty())
      << "TaskSplitScope destroyed without RunAndWait";
}

void TaskSplitScope::Add(std::function<Status()> fn) {
  StealDomain::Split split;
  split.fn = std::move(fn);
  split.scope = this;
  buffered_.push_back(std::move(split));
}

Status TaskSplitScope::RunAndWait() {
  {
    MutexLock lock(&latch_mu_);
    remaining_ = buffered_.size();
  }
  domain_->Publish(slot_, &buffered_);
  while (true) {
    StealDomain::Split s;
    if (domain_->TryPopLocal(slot_, &s) || domain_->TrySteal(slot_, &s)) {
      domain_->RunSplit(std::move(s), slot_);
      continue;
    }
    MutexLock lock(&latch_mu_);
    if (remaining_ == 0) return first_error_;
    latch_cv_.WaitFor(&latch_mu_, kIdleRecheck);
    if (remaining_ == 0) return first_error_;
  }
}

}  // namespace cumulon
