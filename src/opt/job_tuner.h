#ifndef CUMULON_OPT_JOB_TUNER_H_
#define CUMULON_OPT_JOB_TUNER_H_

#include <vector>

#include "cluster/cluster_config.h"
#include "cluster/sim_engine.h"
#include "common/result.h"
#include "cost/cost_model.h"
#include "exec/physical_job.h"

namespace cumulon {

/// Per-operator optimization: given one multiply's input layouts and a
/// cluster, pick the split parameters with the best simulated job time.
/// This is Cumulon's "physical operators and their parameters" choice,
/// separated from the provisioning search so both can be tested and
/// ablated independently.
struct TuneOptions {
  /// Candidate splits; empty selects a built-in portfolio covering block
  /// sizes and split-k depths.
  std::vector<MatMulParams> candidates;

  SimEngineOptions sim;
  double job_startup_seconds = 3.0;
};

/// Result of tuning one multiply.
struct TunedMatMul {
  MatMulParams params;
  double predicted_seconds = 0.0;
  int feasible_candidates = 0;
  int rejected_by_memory = 0;
  /// Candidates screened out by the split-arithmetic verifier
  /// (verify.split in src/verify) before any probe simulation ran.
  int rejected_by_verify = 0;
};

/// Evaluates the candidate portfolio for out = A * B on `cluster` and
/// returns the fastest memory-feasible choice: a candidate's task working
/// set must fit in kSlotMemoryFraction of its slot's share of machine
/// memory. Fails if no candidate fits in memory (the caller should choose
/// smaller tiles or bigger machines — exactly the coupling between storage
/// and provisioning the paper optimizes across).
Result<TunedMatMul> TuneMatMulParams(const TileLayout& a, const TileLayout& b,
                                     const ClusterConfig& cluster,
                                     const TileOpCostModel& cost,
                                     const TuneOptions& options);

/// The built-in candidate portfolio.
std::vector<MatMulParams> DefaultMatMulCandidates();

/// Memory available to one task: machine memory / slots, scaled by the
/// usable fraction.
double SlotMemoryBytes(const ClusterConfig& cluster, double memory_fraction);

}  // namespace cumulon

#endif  // CUMULON_OPT_JOB_TUNER_H_
