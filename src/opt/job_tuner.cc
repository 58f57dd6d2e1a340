#include "opt/job_tuner.h"

#include "common/strings.h"
#include "exec/physical_plan.h"
#include "verify/verify.h"

namespace cumulon {

std::vector<MatMulParams> DefaultMatMulCandidates() {
  return {
      MatMulParams{1, 1, 0}, MatMulParams{2, 2, 0}, MatMulParams{4, 4, 0},
      MatMulParams{2, 1, 0}, MatMulParams{1, 2, 0}, MatMulParams{1, 1, 1},
      MatMulParams{1, 1, 2}, MatMulParams{1, 1, 4}, MatMulParams{1, 1, 8},
      MatMulParams{2, 2, 8},
  };
}

double SlotMemoryBytes(const ClusterConfig& cluster, double memory_fraction) {
  return cluster.machine.memory_bytes() / cluster.slots_per_machine *
         memory_fraction;
}

Result<TunedMatMul> TuneMatMulParams(const TileLayout& a, const TileLayout& b,
                                     const ClusterConfig& cluster,
                                     const TileOpCostModel& cost,
                                     const TuneOptions& options) {
  if (a.cols() != b.rows() || a.tile_cols() != b.tile_rows()) {
    return Status::InvalidArgument(
        StrCat("tuner: incompatible layouts ", a.ToString(), " * ",
               b.ToString()));
  }
  const std::vector<MatMulParams> candidates =
      options.candidates.empty() ? DefaultMatMulCandidates()
                                 : options.candidates;
  const double slot_memory = SlotMemoryBytes(cluster, kSlotMemoryFraction);

  SimEngineOptions sim = options.sim;
  sim.noise_sigma = 0.0;
  SimEngine engine(cluster, sim);

  BuildContext ctx;
  ctx.store = nullptr;
  ctx.cost = &cost;
  ctx.attach_work = false;
  ctx.query_locality = false;
  if (TileCacheGroup* caches = engine.tile_caches()) {
    // Tune against the same cache the target engine will run with, so split
    // choice accounts for cache-served re-reads.
    ctx.node_cache_bytes = caches->bytes_per_node();
    ctx.cache_nodes = cluster.num_machines;
  }

  const TiledMatrix ma{"$tune_a", a};
  const TiledMatrix mb{"$tune_b", b};
  const TiledMatrix mc{"$tune_c", TileLayout(a.rows(), b.cols(),
                                             a.tile_rows(), b.tile_cols())};

  TunedMatMul best;
  bool have_best = false;
  for (const MatMulParams& params : candidates) {
    // Split-arithmetic screening (verify.split): the candidate's blocks
    // must tile this multiply's (gi, gj, gk) grid before it is worth a
    // probe simulation — and before Build's blocking loops could hang on
    // a degenerate extent.
    if (!VerifyMatMulSplit(params, a.grid_rows(), b.grid_cols(),
                           a.grid_cols())
             .ok()) {
      ++best.rejected_by_verify;
      continue;
    }
    if (MatMulJob::TaskMemoryBytes(a, b, params) > slot_memory) {
      ++best.rejected_by_memory;
      continue;
    }
    PhysicalPlan plan;
    CUMULON_RETURN_IF_ERROR(AddMatMul(ma, mb, mc, params, {}, &plan));
    double total = 0.0;
    for (const auto& job : plan.jobs) {
      CUMULON_ASSIGN_OR_RETURN(BuiltJob built, job->Build(ctx));
      CUMULON_ASSIGN_OR_RETURN(JobStats stats, engine.RunJob(built.spec));
      total += stats.duration_seconds + options.job_startup_seconds;
    }
    ++best.feasible_candidates;
    if (!have_best || total < best.predicted_seconds) {
      best.params = params;
      best.predicted_seconds = total;
      have_best = true;
    }
  }
  if (!have_best) {
    return Status::ResourceExhausted(
        StrCat("no multiply split fits in ", FormatBytes(
                   static_cast<int64_t>(slot_memory)),
               " of slot memory; use smaller tiles or bigger machines"));
  }
  return best;
}

}  // namespace cumulon
