#include "exec/physical_job.h"

#include <algorithm>
#include <memory>

#include "cluster/steal_domain.h"
#include "common/aligned_buffer.h"
#include "common/strings.h"
#include "exec/memory_budget.h"
#include "exec/prefetch_pipeline.h"

namespace cumulon {

namespace {

int64_t TileBytes(const TileLayout& layout, int64_t gr, int64_t gc) {
  return 16 + layout.TileRowsAt(gr) * layout.TileColsAt(gc) * 8;
}

/// Splits the tile grid of `layout` into groups of at most `per_task` tiles
/// in row-major order.
std::vector<std::vector<TileId>> GroupTiles(const TileLayout& layout,
                                            int64_t per_task) {
  per_task = std::max<int64_t>(per_task, 1);
  std::vector<std::vector<TileId>> groups;
  std::vector<TileId> current;
  for (int64_t gr = 0; gr < layout.grid_rows(); ++gr) {
    for (int64_t gc = 0; gc < layout.grid_cols(); ++gc) {
      current.push_back(TileId{gr, gc});
      if (static_cast<int64_t>(current.size()) == per_task) {
        groups.push_back(std::move(current));
        current.clear();
      }
    }
  }
  if (!current.empty()) groups.push_back(std::move(current));
  return groups;
}

/// Grid position of a binary step's operand tile for output tile `id`:
/// full operands align 1:1; broadcast vectors collapse one axis.
TileId OperandTileId(const EwStep& step, TileId id) {
  switch (step.operand) {
    case EwStep::Operand::kFull:
      return id;
    case EwStep::Operand::kRowVector:
      return TileId{0, id.col};
    case EwStep::Operand::kColVector:
      return TileId{id.row, 0};
  }
  return id;
}

/// CPU seconds and operand bytes of applying `steps` to one tile of
/// `layout` at grid position (gr, gc).
void AddEwStepsCost(const std::vector<EwStep>& steps, const TileLayout& layout,
                    int64_t gr, int64_t gc, const TileOpCostModel& cost,
                    TaskCost* task_cost) {
  const int64_t elems = layout.TileRowsAt(gr) * layout.TileColsAt(gc);
  for (const EwStep& step : steps) {
    task_cost->cpu_seconds_ref += cost.EwSeconds(elems);
    if (step.kind != EwStep::Kind::kBinary) continue;
    switch (step.operand) {
      case EwStep::Operand::kFull:
        task_cost->bytes_read += TileBytes(layout, gr, gc);
        break;
      case EwStep::Operand::kRowVector:
        task_cost->bytes_read += 16 + layout.TileColsAt(gc) * 8;
        break;
      case EwStep::Operand::kColVector:
        task_cost->bytes_read += 16 + layout.TileRowsAt(gr) * 8;
        break;
    }
  }
}

/// Serialized size of a binary step's operand tile for output grid
/// position (same shapes AddEwStepsCost charges).
int64_t EwOperandBytes(const EwStep& step, const TileLayout& layout,
                       int64_t gr, int64_t gc) {
  switch (step.operand) {
    case EwStep::Operand::kFull:
      return TileBytes(layout, gr, gc);
    case EwStep::Operand::kRowVector:
      return 16 + layout.TileColsAt(gc) * 8;
    case EwStep::Operand::kColVector:
      return 16 + layout.TileRowsAt(gr) * 8;
  }
  return 0;
}

/// Declares the operand reads RunEwSteps will issue for output tile `id`
/// to the prefetch pipeline, in step order.
void HintEwStepOperands(const std::vector<EwStep>& steps,
                        const TileLayout& layout, TileId id,
                        TaskTileReader* reader) {
  for (const EwStep& step : steps) {
    if (step.kind != EwStep::Kind::kBinary) continue;
    reader->Hint(step.other_matrix, OperandTileId(step, id),
                 EwOperandBytes(step, layout, id.row, id.col));
  }
}

/// Runs `steps` on `value` (grid position `id`), fetching binary operands
/// through the task's reader. Operands are memoized per task: broadcast
/// vectors recur for every output tile, and the memo turns those repeats
/// into local-memory lookups instead of cache-lock round trips.
Status RunEwSteps(const std::vector<EwStep>& steps, TaskTileReader* reader,
                  TileId id, Tile* value) {
  for (const EwStep& step : steps) {
    std::shared_ptr<const Tile> other;
    if (step.kind == EwStep::Kind::kBinary) {
      CUMULON_ASSIGN_OR_RETURN(
          other,
          reader->ReadMemoized(step.other_matrix, OperandTileId(step, id)));
    }
    CUMULON_RETURN_IF_ERROR(ApplyEwStep(step, value, other.get()));
  }
  return Status::OK();
}

/// What a task body's readers need, captured once per task.
struct TaskIo {
  TileStore* store = nullptr;
  std::string task_name;
  int64_t prefetch_budget_bytes = 0;
  StealDomain* steal = nullptr;
  MemoryBudgetGroup* memory_budget = nullptr;
  int64_t task_pin_bytes = 0;
};

TaskIo MakeTaskIo(const BuildContext& ctx, const std::string& task_name) {
  CUMULON_CHECK(ctx.memory_budget != nullptr);
  return TaskIo{ctx.store,  task_name,         ctx.prefetch_budget_bytes,
                ctx.steal,  ctx.memory_budget, ctx.task_pin_bytes};
}

/// The one split runner behind every job body. A unit is one block-split
/// of the task (an output tile or stripe); units write disjoint tiles, so
/// results do not depend on who runs them.
///  - No steal domain: one task-wide double-buffered reader. Every unit's
///    reads are hinted in compute order first, then the units compute, so
///    unit n+1's tiles download while unit n computes, and tiles that
///    recur across units are served by the reader's memo (under a memory
///    budget, by the pin window: older panels spill and stream back in).
///  - Steal domain: each unit is published as a split through a
///    TaskSplitScope. Each split opens its own reader (TaskTileReader is
///    single-threaded), so stolen splits prefetch and read wherever they
///    execute; the split lambdas capture this frame by reference, which
///    RunAndWait keeps alive until every split has run.
template <typename Unit, typename HintFn, typename ComputeFn>
Status RunTaskUnits(const TaskIo& io, int machine,
                    const std::vector<Unit>& units, const HintFn& hint,
                    const ComputeFn& compute) {
  MemoryBudget* const ledger = io.memory_budget->node(machine);
  if (io.steal == nullptr) {
    TaskTileReader reader(io.store, machine, io.prefetch_budget_bytes, ledger,
                          io.task_pin_bytes);
    for (const Unit& unit : units) hint(&reader, unit);
    for (const Unit& unit : units) {
      CUMULON_RETURN_IF_ERROR(compute(&reader, unit));
    }
    return Status::OK();
  }
  TaskSplitScope scope(io.steal, io.task_name, machine);
  for (const Unit& unit : units) {
    scope.Add([&, unit]() -> Status {
      TaskTileReader reader(io.store, machine, io.prefetch_budget_bytes,
                            ledger, io.task_pin_bytes);
      hint(&reader, unit);
      return compute(&reader, unit);
    });
  }
  return scope.RunAndWait();
}

void MergePreferred(std::vector<int>* dst, const std::vector<int>& src,
                    size_t cap = 8) {
  for (int node : src) {
    if (dst->size() >= cap) return;
    if (std::find(dst->begin(), dst->end(), node) == dst->end()) {
      dst->push_back(node);
    }
  }
}

void AppendStepOperands(const std::vector<EwStep>& steps,
                        std::vector<std::string>* matrices) {
  for (const EwStep& step : steps) {
    if (step.kind == EwStep::Kind::kBinary) {
      matrices->push_back(step.other_matrix);
    }
  }
}

std::string EwChainToString(const std::vector<EwStep>& steps) {
  std::string s;
  for (const EwStep& step : steps) {
    if (!s.empty()) s += " . ";
    s += step.ToString();
  }
  return s;
}

}  // namespace

std::string MatMulParams::ToString() const {
  return StrCat("bi=", bi, ",bj=", bj, ",bk=", bk <= 0 ? -1 : bk);
}

// ---------------------------------------------------------------------------
// MatMulJob
// ---------------------------------------------------------------------------

MatMulJob::MatMulJob(std::string name, TiledMatrix a, TiledMatrix b,
                     TiledMatrix out, MatMulParams params,
                     std::vector<EwStep> epilogue)
    : name_(std::move(name)),
      a_(std::move(a)),
      b_(std::move(b)),
      out_(std::move(out)),
      params_(params),
      epilogue_(std::move(epilogue)) {}

int64_t MatMulJob::NumKSplits() const {
  const int64_t gk = a_.layout.grid_cols();
  const int64_t bk =
      params_.bk <= 0 ? gk : std::min<int64_t>(params_.bk, gk);
  return (gk + bk - 1) / bk;
}

std::string MatMulJob::PartialName(const std::string& out, int64_t p) {
  return StrCat(out, "#k", p);
}

int64_t MatMulJob::TaskMemoryBytes(const TileLayout& a, const TileLayout& b,
                                   const MatMulParams& params) {
  const int64_t gi = a.grid_rows();
  const int64_t gj = b.grid_cols();
  const int64_t gk = a.grid_cols();
  const int64_t bi = std::clamp<int64_t>(params.bi, 1, gi);
  const int64_t bj = std::clamp<int64_t>(params.bj, 1, gj);
  const int64_t bk =
      params.bk <= 0 ? gk : std::clamp<int64_t>(params.bk, 1, gk);
  const int64_t a_tile = a.tile_rows() * a.tile_cols() * 8;
  const int64_t b_tile = b.tile_rows() * b.tile_cols() * 8;
  const int64_t c_tile = a.tile_rows() * b.tile_cols() * 8;
  return bi * bk * a_tile + bk * bj * b_tile + c_tile;
}

std::vector<std::string> MatMulJob::InputMatrices() const {
  std::vector<std::string> in = {a_.name, b_.name};
  if (NumKSplits() == 1) AppendStepOperands(epilogue_, &in);
  return in;
}

std::vector<std::string> MatMulJob::OutputMatrices() const {
  const int64_t nk = NumKSplits();
  if (nk == 1) return {out_.name};
  std::vector<std::string> out;
  for (int64_t p = 0; p < nk; ++p) out.push_back(PartialName(out_.name, p));
  return out;
}

std::string MatMulJob::DebugString() const {
  return StrCat("MatMul[", name_, "] ", out_.name, " = ", a_.name, " * ",
                b_.name, " (", params_.ToString(), ")",
                epilogue_.empty() ? ""
                                  : StrCat(" epi{", EwChainToString(epilogue_),
                                           "}"));
}

Result<BuiltJob> MatMulJob::Build(const BuildContext& ctx) const {
  const TileLayout& la = a_.layout;
  const TileLayout& lb = b_.layout;
  const TileLayout& lc = out_.layout;
  if (la.cols() != lb.rows()) {
    return Status::InvalidArgument(
        StrCat(name_, ": inner dimensions differ: A ", la.ToString(), ", B ",
               lb.ToString()));
  }
  if (!InnerAligned(la, lb)) {
    return Status::InvalidArgument(
        StrCat(name_, ": tile grids not aligned on k: A ", la.ToString(),
               " vs B ", lb.ToString()));
  }
  if (!RowPartitionsEqual(lc, la) || !ColPartitionsEqual(lc, lb)) {
    return Status::InvalidArgument(
        StrCat(name_, ": output layout ", lc.ToString(),
               " inconsistent with A ", la.ToString(), " and B ",
               lb.ToString()));
  }

  const int64_t gi = la.grid_rows();
  const int64_t gj = lb.grid_cols();
  const int64_t gk = la.grid_cols();
  const int64_t bi = std::clamp<int64_t>(params_.bi, 1, gi);
  const int64_t bj = std::clamp<int64_t>(params_.bj, 1, gj);
  const int64_t bk =
      params_.bk <= 0 ? gk : std::clamp<int64_t>(params_.bk, 1, gk);
  const int64_t nk = (gk + bk - 1) / bk;

  // --- Node-local cache model ---
  // Each A tile is read by one task per j-block (gj/bj of them), each B
  // tile by one task per i-block. With a per-node cache those re-reads
  // collapse to roughly one DFS fetch per node that touches the tile:
  // expected misses per tile = min(readers, nodes), so the cached
  // fraction of a task's A/B bytes is 1 - nodes/readers. Hits only
  // materialize while the tiles stay resident, so the fractions are
  // scaled by how much of a node's share of the input set fits in its
  // cache budget.
  const int64_t a_readers = (gj + bj - 1) / bj;
  const int64_t b_readers = (gi + bi - 1) / bi;
  double a_hit_frac = 0.0, b_hit_frac = 0.0;
  if (ctx.node_cache_bytes > 0 && ctx.cache_nodes > 0) {
    const double nodes = static_cast<double>(ctx.cache_nodes);
    if (a_readers > ctx.cache_nodes) a_hit_frac = 1.0 - nodes / a_readers;
    if (b_readers > ctx.cache_nodes) b_hit_frac = 1.0 - nodes / b_readers;
    const double input_bytes =
        static_cast<double>(16 * gi * gk + la.rows() * la.cols() * 8) +
        static_cast<double>(16 * gk * gj + lb.rows() * lb.cols() * 8);
    const double per_node_share = input_bytes / nodes;
    const double fit =
        per_node_share <= 0.0
            ? 1.0
            : std::min(1.0, static_cast<double>(ctx.node_cache_bytes) /
                                per_node_share);
    a_hit_frac *= fit;
    b_hit_frac *= fit;
  }

  BuiltJob built;
  built.spec.name = name_;

  for (int64_t kb = 0; kb < nk; ++kb) {
    const int64_t k0 = kb * bk;
    const int64_t k1 = std::min(k0 + bk, gk);
    const std::string out_name =
        nk == 1 ? out_.name : PartialName(out_.name, kb);
    const bool apply_epilogue = (nk == 1) && !epilogue_.empty();

    for (int64_t ib = 0; ib < gi; ib += bi) {
      const int64_t i1 = std::min(ib + bi, gi);
      for (int64_t jb = 0; jb < gj; jb += bj) {
        const int64_t j1 = std::min(jb + bj, gj);

        Task task;
        task.name = StrCat(name_, "/t", ib, "_", jb, "_", kb);
        std::vector<TileOutput> outputs;

        // --- Declared cost ---
        int64_t a_bytes = 0, b_bytes = 0;
        for (int64_t i = ib; i < i1; ++i) {
          for (int64_t k = k0; k < k1; ++k) {
            a_bytes += TileBytes(la, i, k);
          }
        }
        for (int64_t k = k0; k < k1; ++k) {
          for (int64_t j = jb; j < j1; ++j) {
            b_bytes += TileBytes(lb, k, j);
          }
        }
        task.cost.bytes_read += a_bytes + b_bytes;
        task.cost.bytes_read_cached = static_cast<int64_t>(
            a_bytes * a_hit_frac + b_bytes * b_hit_frac);
        // Out-of-core streaming term (cost/cost_model.h): the compute
        // order touches the A block once per j unit and the B block once
        // per i unit; whatever fraction of the working set exceeds the
        // task's pin share is re-fetched on each extra touch (none with an
        // unlimited share).
        const int64_t working_set = a_bytes + b_bytes + TileBytes(lc, ib, jb);
        task.cost.bytes_read += static_cast<int64_t>(
            StreamingRefetchBytes(a_bytes, static_cast<double>(j1 - jb),
                                  working_set, ctx.task_pin_bytes) +
            StreamingRefetchBytes(b_bytes, static_cast<double>(i1 - ib),
                                  working_set, ctx.task_pin_bytes));
        for (int64_t i = ib; i < i1; ++i) {
          for (int64_t j = jb; j < j1; ++j) {
            const int64_t mi = lc.TileRowsAt(i);
            const int64_t nj = lc.TileColsAt(j);
            for (int64_t k = k0; k < k1; ++k) {
              task.cost.cpu_seconds_ref +=
                  ctx.cost->GemmSeconds(mi, nj, la.TileColsAt(k));
            }
            if (apply_epilogue) {
              AddEwStepsCost(epilogue_, lc, i, j, *ctx.cost, &task.cost);
            }
            const int64_t out_bytes = TileBytes(lc, i, j);
            task.cost.bytes_written += out_bytes;
            outputs.push_back(TileOutput{out_name, TileId{i, j}, out_bytes});
          }
        }

        // --- Locality preference: where this task's inputs live ---
        if (ctx.query_locality && ctx.store != nullptr) {
          MergePreferred(&task.preferred_machines,
                         ctx.store->PreferredNodes(a_.name, TileId{ib, k0}));
          MergePreferred(&task.preferred_machines,
                         ctx.store->PreferredNodes(b_.name, TileId{k0, jb}));
        }

        // --- Real-mode work closure ---
        if (ctx.attach_work) {
          // Capture everything by value; the job object may not outlive
          // the engine run in all call patterns.
          const TiledMatrix a = a_;
          const TiledMatrix b = b_;
          const TileLayout out_layout = lc;
          const std::vector<EwStep> epilogue =
              apply_epilogue ? epilogue_ : std::vector<EwStep>{};
          // One unit of work = one output tile (i,j): fold its k range,
          // run the epilogue, write the tile. A and B tiles recur across
          // the block (A per j, B per i), so they go through the memo,
          // which bounds the task's live set to exactly the bi*bk + bk*bj
          // tiles TaskMemoryBytes budgets for.
          std::vector<TileId> units;
          for (int64_t i = ib; i < i1; ++i) {
            for (int64_t j = jb; j < j1; ++j) units.push_back(TileId{i, j});
          }
          task.work = [io = MakeTaskIo(ctx, task.name), a, b, out_layout,
                       out_name, epilogue, units, k0,
                       k1](int machine) -> Status {
            auto hint_unit = [&](TaskTileReader* reader, const TileId& u) {
              const int64_t i = u.row, j = u.col;
              for (int64_t k = k0; k < k1; ++k) {
                reader->Hint(a.name, TileId{i, k},
                             TileBytes(a.layout, i, k));
                reader->Hint(b.name, TileId{k, j},
                             TileBytes(b.layout, k, j));
              }
              HintEwStepOperands(epilogue, out_layout, TileId{i, j}, reader);
            };
            auto compute_unit = [&](TaskTileReader* reader,
                                    const TileId& u) -> Status {
              const int64_t i = u.row, j = u.col;
              Tile acc(out_layout.TileRowsAt(i), out_layout.TileColsAt(j));
              const TaskTileReader::ScratchReservation scratch =
                  reader->PinScratch(acc.MemoryBytes());
              for (int64_t k = k0; k < k1; ++k) {
                CUMULON_ASSIGN_OR_RETURN(
                    std::shared_ptr<const Tile> ta,
                    reader->ReadMemoized(a.name, TileId{i, k}));
                CUMULON_ASSIGN_OR_RETURN(
                    std::shared_ptr<const Tile> tb,
                    reader->ReadMemoized(b.name, TileId{k, j}));
                CUMULON_RETURN_IF_ERROR(Gemm(*ta, *tb, 1.0, 1.0, &acc));
              }
              CUMULON_RETURN_IF_ERROR(
                  RunEwSteps(epilogue, reader, TileId{i, j}, &acc));
              return io.store->Put(out_name, TileId{i, j},
                                   std::make_shared<Tile>(std::move(acc)),
                                   machine);
            };
            return RunTaskUnits(io, machine, units, hint_unit, compute_unit);
          };
        }

        built.spec.tasks.push_back(std::move(task));
        built.task_outputs.push_back(std::move(outputs));
      }
    }
  }
  return built;
}

// ---------------------------------------------------------------------------
// SumJob
// ---------------------------------------------------------------------------

SumJob::SumJob(std::string name, std::vector<std::string> parts,
               TiledMatrix out, std::vector<EwStep> epilogue,
               int64_t tiles_per_task)
    : name_(std::move(name)),
      parts_(std::move(parts)),
      out_(std::move(out)),
      epilogue_(std::move(epilogue)),
      tiles_per_task_(tiles_per_task) {}

std::vector<std::string> SumJob::InputMatrices() const {
  std::vector<std::string> in = parts_;
  AppendStepOperands(epilogue_, &in);
  return in;
}

std::vector<std::string> SumJob::OutputMatrices() const {
  return {out_.name};
}

std::string SumJob::DebugString() const {
  return StrCat("Sum[", name_, "] ", out_.name, " = sum of ", parts_.size(),
                " partials", epilogue_.empty()
                                 ? ""
                                 : StrCat(" epi{", EwChainToString(epilogue_),
                                          "}"));
}

Result<BuiltJob> SumJob::Build(const BuildContext& ctx) const {
  if (parts_.empty()) {
    return Status::InvalidArgument(StrCat(name_, ": no partials to sum"));
  }
  const TileLayout& lc = out_.layout;
  BuiltJob built;
  built.spec.name = name_;

  for (auto& group : GroupTiles(lc, tiles_per_task_)) {
    Task task;
    task.name = StrCat(name_, "/t", built.spec.tasks.size());
    std::vector<TileOutput> outputs;

    for (const TileId& id : group) {
      const int64_t bytes = TileBytes(lc, id.row, id.col);
      task.cost.bytes_read += bytes * static_cast<int64_t>(parts_.size());
      task.cost.cpu_seconds_ref +=
          static_cast<double>(parts_.size()) *
          ctx.cost->AccumulateSeconds(lc.TileRowsAt(id.row) *
                                      lc.TileColsAt(id.col));
      AddEwStepsCost(epilogue_, lc, id.row, id.col, *ctx.cost, &task.cost);
      task.cost.bytes_written += bytes;
      outputs.push_back(TileOutput{out_.name, id, bytes});
    }

    if (ctx.query_locality && ctx.store != nullptr) {
      MergePreferred(&task.preferred_machines,
                     ctx.store->PreferredNodes(parts_[0], group.front()));
    }

    if (ctx.attach_work) {
      const std::vector<std::string> parts = parts_;
      const std::string out_name = out_.name;
      const TileLayout out_layout = lc;
      const std::vector<EwStep> epilogue = epilogue_;
      task.work = [io = MakeTaskIo(ctx, task.name), parts, out_name,
                   out_layout, epilogue, group](int machine) -> Status {
        auto hint_unit = [&](TaskTileReader* reader, const TileId& id) {
          for (const std::string& part : parts) {
            reader->Hint(part, id, TileBytes(out_layout, id.row, id.col));
          }
          HintEwStepOperands(epilogue, out_layout, id, reader);
        };
        auto compute_unit = [&](TaskTileReader* reader,
                                const TileId& id) -> Status {
          Tile acc(out_layout.TileRowsAt(id.row),
                   out_layout.TileColsAt(id.col));
          const TaskTileReader::ScratchReservation scratch =
              reader->PinScratch(2 * acc.MemoryBytes());
          for (const std::string& part : parts) {
            CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> t,
                                     reader->Read(part, id));
            CUMULON_RETURN_IF_ERROR(AccumulateInto(*t, &acc));
          }
          CUMULON_RETURN_IF_ERROR(RunEwSteps(epilogue, reader, id, &acc));
          return io.store->Put(out_name, id,
                               std::make_shared<Tile>(std::move(acc)),
                               machine);
        };
        return RunTaskUnits(io, machine, group, hint_unit, compute_unit);
      };
    }

    built.spec.tasks.push_back(std::move(task));
    built.task_outputs.push_back(std::move(outputs));
  }
  return built;
}

// ---------------------------------------------------------------------------
// EwChainJob
// ---------------------------------------------------------------------------

EwChainJob::EwChainJob(std::string name, TiledMatrix in, TiledMatrix out,
                       std::vector<EwStep> steps, int64_t tiles_per_task)
    : name_(std::move(name)),
      in_(std::move(in)),
      out_(std::move(out)),
      steps_(std::move(steps)),
      tiles_per_task_(tiles_per_task) {}

std::vector<std::string> EwChainJob::InputMatrices() const {
  std::vector<std::string> in = {in_.name};
  AppendStepOperands(steps_, &in);
  return in;
}

std::vector<std::string> EwChainJob::OutputMatrices() const {
  return {out_.name};
}

std::string EwChainJob::DebugString() const {
  return StrCat("EwChain[", name_, "] ", out_.name, " = {",
                EwChainToString(steps_), "}(", in_.name, ")");
}

Result<BuiltJob> EwChainJob::Build(const BuildContext& ctx) const {
  if (!GridsAlign(in_.layout, out_.layout)) {
    return Status::InvalidArgument(
        StrCat(name_, ": element-wise chain requires aligned grids (in ",
               in_.layout.ToString(), ", out ", out_.layout.ToString(), ")"));
  }
  const TileLayout& lc = out_.layout;
  BuiltJob built;
  built.spec.name = name_;

  for (auto& group : GroupTiles(lc, tiles_per_task_)) {
    Task task;
    task.name = StrCat(name_, "/t", built.spec.tasks.size());
    std::vector<TileOutput> outputs;

    for (const TileId& id : group) {
      const int64_t bytes = TileBytes(lc, id.row, id.col);
      task.cost.bytes_read += bytes;
      AddEwStepsCost(steps_, lc, id.row, id.col, *ctx.cost, &task.cost);
      task.cost.bytes_written += bytes;
      outputs.push_back(TileOutput{out_.name, id, bytes});
    }

    if (ctx.query_locality && ctx.store != nullptr) {
      MergePreferred(&task.preferred_machines,
                     ctx.store->PreferredNodes(in_.name, group.front()));
    }

    if (ctx.attach_work) {
      const std::string in_name = in_.name;
      const std::string out_name = out_.name;
      const TileLayout out_layout = lc;
      const std::vector<EwStep> steps = steps_;
      task.work = [io = MakeTaskIo(ctx, task.name), in_name, out_name,
                   out_layout, steps, group](int machine) -> Status {
        auto hint_unit = [&](TaskTileReader* reader, const TileId& id) {
          reader->Hint(in_name, id, TileBytes(out_layout, id.row, id.col));
          HintEwStepOperands(steps, out_layout, id, reader);
        };
        auto compute_unit = [&](TaskTileReader* reader,
                                const TileId& id) -> Status {
          CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> t,
                                   reader->Read(in_name, id));
          Tile value = *t;
          // Scratch covers the working copy plus the transient input tile
          // still alive in `t`.
          const TaskTileReader::ScratchReservation scratch =
              reader->PinScratch(2 * value.MemoryBytes());
          CUMULON_RETURN_IF_ERROR(RunEwSteps(steps, reader, id, &value));
          return io.store->Put(out_name, id,
                               std::make_shared<Tile>(std::move(value)),
                               machine);
        };
        return RunTaskUnits(io, machine, group, hint_unit, compute_unit);
      };
    }

    built.spec.tasks.push_back(std::move(task));
    built.task_outputs.push_back(std::move(outputs));
  }
  return built;
}

// ---------------------------------------------------------------------------
// AggregateJob
// ---------------------------------------------------------------------------

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kRowSums:
      return "row_sums";
    case AggKind::kColSums:
      return "col_sums";
  }
  return "?";
}

TileLayout AggOutputLayout(const TileLayout& in, AggKind kind) {
  if (kind == AggKind::kRowSums) {
    return TileLayout(in.rows(), 1, in.tile_rows(), 1);
  }
  return TileLayout(1, in.cols(), 1, in.tile_cols());
}

AggregateJob::AggregateJob(std::string name, TiledMatrix in, TiledMatrix out,
                           AggKind kind, std::vector<EwStep> epilogue,
                           int64_t stripes_per_task)
    : name_(std::move(name)),
      in_(std::move(in)),
      out_(std::move(out)),
      kind_(kind),
      epilogue_(std::move(epilogue)),
      stripes_per_task_(std::max<int64_t>(stripes_per_task, 1)) {}

std::vector<std::string> AggregateJob::InputMatrices() const {
  std::vector<std::string> in = {in_.name};
  AppendStepOperands(epilogue_, &in);
  return in;
}

std::vector<std::string> AggregateJob::OutputMatrices() const {
  return {out_.name};
}

std::string AggregateJob::DebugString() const {
  return StrCat("Aggregate[", name_, "] ", out_.name, " = ",
                AggKindName(kind_), "(", in_.name, ")",
                epilogue_.empty() ? ""
                                  : StrCat(" epi{", EwChainToString(epilogue_),
                                           "}"));
}

Result<BuiltJob> AggregateJob::Build(const BuildContext& ctx) const {
  const TileLayout& li = in_.layout;
  if (!GridsAlign(out_.layout, AggOutputLayout(li, kind_))) {
    return Status::InvalidArgument(
        StrCat(name_, ": output layout ", out_.layout.ToString(),
               " is not the ", AggKindName(kind_), " of ", li.ToString()));
  }
  const bool row_sums = kind_ == AggKind::kRowSums;
  const int64_t num_stripes = row_sums ? li.grid_rows() : li.grid_cols();
  const int64_t cross = row_sums ? li.grid_cols() : li.grid_rows();
  const TileLayout& lo = out_.layout;

  BuiltJob built;
  built.spec.name = name_;
  for (int64_t s0 = 0; s0 < num_stripes; s0 += stripes_per_task_) {
    const int64_t s1 = std::min(s0 + stripes_per_task_, num_stripes);
    Task task;
    task.name = StrCat(name_, "/t", s0);
    std::vector<TileOutput> outputs;
    for (int64_t s = s0; s < s1; ++s) {
      for (int64_t x = 0; x < cross; ++x) {
        const int64_t gr = row_sums ? s : x;
        const int64_t gc = row_sums ? x : s;
        task.cost.bytes_read += TileBytes(li, gr, gc);
        task.cost.cpu_seconds_ref +=
            ctx.cost->EwSeconds(li.TileRowsAt(gr) * li.TileColsAt(gc));
      }
      const TileId out_id = row_sums ? TileId{s, 0} : TileId{0, s};
      AddEwStepsCost(epilogue_, lo, out_id.row, out_id.col, *ctx.cost,
                     &task.cost);
      const int64_t out_bytes = TileBytes(lo, out_id.row, out_id.col);
      task.cost.bytes_written += out_bytes;
      outputs.push_back(TileOutput{out_.name, out_id, out_bytes});
    }

    if (ctx.query_locality && ctx.store != nullptr) {
      const TileId first = row_sums ? TileId{s0, 0} : TileId{0, s0};
      MergePreferred(&task.preferred_machines,
                     ctx.store->PreferredNodes(in_.name, first));
    }

    if (ctx.attach_work) {
      const std::string in_name = in_.name;
      const std::string out_name = out_.name;
      const TileLayout in_layout = li;
      const TileLayout out_layout = lo;
      const std::vector<EwStep> epilogue = epilogue_;
      const bool rows_mode = row_sums;
      std::vector<int64_t> stripes;
      for (int64_t s = s0; s < s1; ++s) stripes.push_back(s);
      task.work = [io = MakeTaskIo(ctx, task.name), in_name, out_name,
                   in_layout, out_layout, epilogue, rows_mode, stripes,
                   cross](int machine) -> Status {
        // One unit = one output stripe s (row sums: grid row; col sums:
        // grid column), reading its full cross range of input tiles.
        auto hint_unit = [&](TaskTileReader* reader, int64_t s) {
          for (int64_t x = 0; x < cross; ++x) {
            const TileId in_id = rows_mode ? TileId{s, x} : TileId{x, s};
            reader->Hint(in_name, in_id,
                         TileBytes(in_layout, in_id.row, in_id.col));
          }
          const TileId out_id = rows_mode ? TileId{s, 0} : TileId{0, s};
          HintEwStepOperands(epilogue, out_layout, out_id, reader);
        };
        auto compute_unit = [&](TaskTileReader* reader, int64_t s) -> Status {
          const TileId out_id = rows_mode ? TileId{s, 0} : TileId{0, s};
          Tile acc(out_layout.TileRowsAt(out_id.row),
                   out_layout.TileColsAt(out_id.col));
          // Scratch covers the accumulator, the per-chunk partial, and the
          // transient input tile being reduced.
          const TaskTileReader::ScratchReservation scratch =
              reader->PinScratch(
                  2 * acc.MemoryBytes() +
                  AlignedFootprintBytes(in_layout.tile_rows() *
                                        in_layout.tile_cols() * 8));
          // Panel-partial reduction (tile_ops.h): each kAggPanelTiles-wide
          // panel folds into a zero partial, combined left-to-right into
          // acc. Panel width is a constant, so resident and streamed runs
          // at any budget add in the identical order.
          for (int64_t x0 = 0; x0 < cross; x0 += kAggPanelTiles) {
            const int64_t x1 = std::min(x0 + kAggPanelTiles, cross);
            Tile partial(acc.rows(), acc.cols());
            for (int64_t x = x0; x < x1; ++x) {
              const TileId in_id = rows_mode ? TileId{s, x} : TileId{x, s};
              CUMULON_ASSIGN_OR_RETURN(std::shared_ptr<const Tile> t,
                                       reader->Read(in_name, in_id));
              CUMULON_RETURN_IF_ERROR(
                  rows_mode ? RowSumsPartialInto(*t, &partial)
                            : ColSumsInto(*t, &partial));
            }
            CUMULON_RETURN_IF_ERROR(CombineAggPartial(partial, &acc));
          }
          CUMULON_RETURN_IF_ERROR(
              RunEwSteps(epilogue, reader, out_id, &acc));
          return io.store->Put(out_name, out_id,
                               std::make_shared<Tile>(std::move(acc)),
                               machine);
        };
        return RunTaskUnits(io, machine, stripes, hint_unit, compute_unit);
      };
    }

    built.spec.tasks.push_back(std::move(task));
    built.task_outputs.push_back(std::move(outputs));
  }
  return built;
}

// ---------------------------------------------------------------------------
// TransposeJob
// ---------------------------------------------------------------------------

TransposeJob::TransposeJob(std::string name, TiledMatrix in, TiledMatrix out,
                           int64_t tiles_per_task)
    : name_(std::move(name)),
      in_(std::move(in)),
      out_(std::move(out)),
      tiles_per_task_(tiles_per_task) {}

std::vector<std::string> TransposeJob::InputMatrices() const {
  return {in_.name};
}

std::vector<std::string> TransposeJob::OutputMatrices() const {
  return {out_.name};
}

std::string TransposeJob::DebugString() const {
  return StrCat("Transpose[", name_, "] ", out_.name, " = ", in_.name, "^T");
}

Result<BuiltJob> TransposeJob::Build(const BuildContext& ctx) const {
  if (!GridsAlign(in_.layout.Transposed(), out_.layout)) {
    return Status::InvalidArgument(
        StrCat(name_, ": output layout must be the transpose of the input (",
               in_.layout.ToString(), " -> ", out_.layout.ToString(), ")"));
  }
  const TileLayout& lc = out_.layout;
  BuiltJob built;
  built.spec.name = name_;

  for (auto& group : GroupTiles(lc, tiles_per_task_)) {
    Task task;
    task.name = StrCat(name_, "/t", built.spec.tasks.size());
    std::vector<TileOutput> outputs;

    for (const TileId& id : group) {
      const int64_t bytes = TileBytes(lc, id.row, id.col);
      task.cost.bytes_read += bytes;
      task.cost.cpu_seconds_ref += ctx.cost->TransposeSeconds(
          lc.TileRowsAt(id.row) * lc.TileColsAt(id.col));
      task.cost.bytes_written += bytes;
      outputs.push_back(TileOutput{out_.name, id, bytes});
    }

    if (ctx.query_locality && ctx.store != nullptr) {
      const TileId src{group.front().col, group.front().row};
      MergePreferred(&task.preferred_machines,
                     ctx.store->PreferredNodes(in_.name, src));
    }

    if (ctx.attach_work) {
      const std::string in_name = in_.name;
      const std::string out_name = out_.name;
      const TileLayout out_layout = lc;
      task.work = [io = MakeTaskIo(ctx, task.name), in_name, out_name,
                   out_layout, group](int machine) -> Status {
        auto hint_unit = [&](TaskTileReader* reader, const TileId& id) {
          // Input tile (j,i) has the transposed shape of output (i,j),
          // which is the same serialized size.
          reader->Hint(in_name, TileId{id.col, id.row},
                       TileBytes(out_layout, id.row, id.col));
        };
        auto compute_unit = [&](TaskTileReader* reader,
                                const TileId& id) -> Status {
          CUMULON_ASSIGN_OR_RETURN(
              std::shared_ptr<const Tile> t,
              reader->Read(in_name, TileId{id.col, id.row}));
          Tile out_tile(out_layout.TileRowsAt(id.row),
                        out_layout.TileColsAt(id.col));
          // Scratch covers the output tile plus the transient input tile.
          const TaskTileReader::ScratchReservation scratch =
              reader->PinScratch(2 * out_tile.MemoryBytes());
          CUMULON_RETURN_IF_ERROR(TransposeTile(*t, &out_tile));
          return io.store->Put(out_name, id,
                               std::make_shared<Tile>(std::move(out_tile)),
                               machine);
        };
        return RunTaskUnits(io, machine, group, hint_unit, compute_unit);
      };
    }

    built.spec.tasks.push_back(std::move(task));
    built.task_outputs.push_back(std::move(outputs));
  }
  return built;
}

}  // namespace cumulon
