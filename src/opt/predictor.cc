#include "opt/predictor.h"

#include <map>

#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "opt/job_tuner.h"

namespace cumulon {

Result<LoweredProgram> PrepareProgram(const ProgramSpec& spec,
                                      TileStore* store,
                                      const LoweringOptions& lowering) {
  std::map<std::string, TiledMatrix> bindings;
  for (const TiledMatrix& input : spec.inputs) {
    const TileLayout& layout = input.layout;
    for (int64_t gr = 0; gr < layout.grid_rows(); ++gr) {
      for (int64_t gc = 0; gc < layout.grid_cols(); ++gc) {
        const int64_t bytes =
            16 + layout.TileRowsAt(gr) * layout.TileColsAt(gc) * 8;
        CUMULON_RETURN_IF_ERROR(
            store->PutMeta(input.name, TileId{gr, gc}, bytes, /*writer=*/-1));
      }
    }
    bindings.insert_or_assign(input.name, input);
  }
  return Lower(spec.program, bindings, lowering);
}

Result<PredictionResult> PredictProgram(const ProgramSpec& spec,
                                        const ClusterConfig& cluster,
                                        const PredictorOptions& options) {
  // Fresh simulated DFS sized to the candidate cluster, with the inputs'
  // tiles spread across it the way a load step would have left them.
  DfsOptions dfs_options;
  dfs_options.num_nodes = cluster.num_machines;
  dfs_options.replication = options.dfs_replication;
  dfs_options.seed = options.seed;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);
  if (options.metrics != nullptr) store.AttachMetrics(options.metrics);

  LoweringOptions lowering = options.lowering;
  // The plan's determinism contract records the predictor's seed, so the
  // simulated schedule and any later replay derive from the same stream.
  lowering.seed = options.seed;
  if (options.tune_mm_per_job) {
    // Per-operator optimization: choose every multiply's splits for this
    // cluster. The callback only sees grid extents, so reconstruct
    // uniform layouts at the configured tile size (edge raggedness does
    // not move the optimum).
    const int64_t tile = lowering.tile_dim;
    const TileOpCostModel cost = options.cost;
    // The probes see the prediction's sim options (io_overlap_fraction
    // included), so the splits the tuner picks are optimal for the regime
    // being predicted.
    const SimEngineOptions sim = options.sim;
    const double job_startup = options.job_startup_seconds;
    lowering.mm_params = [cluster, cost, sim, job_startup, tile](
                             int64_t gi, int64_t gj, int64_t gk) {
      TuneOptions tune;
      tune.sim = sim;
      // Probe simulations are what-if runs, not the predicted schedule;
      // keep them out of the trace and the metrics — and away from the
      // revocation controller, whose virtual-clock origin and fired-once
      // state must only advance with the predicted schedule itself.
      tune.sim.tracer = nullptr;
      tune.sim.metrics = nullptr;
      tune.sim.revocation = nullptr;
      tune.job_startup_seconds = job_startup;
      const TileLayout a(gi * tile, gk * tile, tile, tile);
      const TileLayout b(gk * tile, gj * tile, tile, tile);
      auto tuned = TuneMatMulParams(a, b, cluster, cost, tune);
      if (!tuned.ok()) {
        CUMULON_LOG(Warning) << "multiply tuning failed ("
                             << tuned.status().ToString()
                             << "); falling back to unit splits";
        return MatMulParams{1, 1, 0};
      }
      return tuned->params;
    };
  }

  CUMULON_ASSIGN_OR_RETURN(LoweredProgram lowered,
                           PrepareProgram(spec, &store, lowering));

  SimEngineOptions sim = options.sim;
  sim.noise_sigma = 0.0;  // the predictor is the noise-free simulation
  sim.replication = options.dfs_replication;
  if (options.tracer != nullptr) sim.tracer = options.tracer;
  if (options.metrics != nullptr) sim.metrics = options.metrics;
  SimEngine engine(cluster, sim);

  ExecutorOptions exec_options;
  exec_options.real_mode = false;
  exec_options.job_startup_seconds = options.job_startup_seconds;
  exec_options.memory_budget_bytes = options.memory_budget_bytes;
  if (options.tracer != nullptr) exec_options.tracer = options.tracer;
  if (options.metrics != nullptr) exec_options.metrics = options.metrics;
  Executor executor(&store, &engine, &options.cost, exec_options);

  PredictionResult result;
  CUMULON_ASSIGN_OR_RETURN(result.stats, executor.Run(lowered.plan));
  result.seconds = result.stats.total_seconds;
  // A transient fleet loses expected capacity to revocations and reruns the
  // killed work; charge the analytic rework term unless a controller is
  // injected — then the simulation above already replayed the actual losses
  // and inflating again would double-count them.
  if (sim.revocation == nullptr && cluster.machine.transient &&
      cluster.machine.revocation_hazard_per_hour > 0.0) {
    result.seconds *= ExpectedRevocationSlowdown(
        cluster.num_machines, cluster.num_machines,
        cluster.machine.revocation_hazard_per_hour, result.seconds);
  }
  result.dollars = ClusterDollarCost(cluster.machine, cluster.num_machines,
                                     result.seconds, options.billing);
  return result;
}

Result<AdmissionEstimate> EstimateForAdmission(
    const ProgramSpec& spec, const ClusterConfig& cluster,
    const PredictorOptions& options) {
  PredictorOptions quick = options;
  quick.tune_mm_per_job = false;
  quick.tracer = nullptr;
  quick.metrics = nullptr;
  // Admission estimates are what-if runs: never advance the injected
  // revocation controller's clock or fired-once state.
  quick.sim.revocation = nullptr;
  CUMULON_ASSIGN_OR_RETURN(PredictionResult prediction,
                           PredictProgram(spec, cluster, quick));
  AdmissionEstimate estimate;
  estimate.seconds = prediction.seconds;
  estimate.dollars = prediction.dollars;
  estimate.valid = true;
  return estimate;
}

}  // namespace cumulon
