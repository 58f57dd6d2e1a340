// rsvd_stream: real-mode RSVD-1 executions (A 4096 x 2048, l = 64,
// t = 256) on a RealEngine with 3 machines x 1 slot over a DfsTileStore
// that sleeps 2 ms + size / 256 MB/s per read, with 4 prefetch threads, the
// node tile cache and a per-node memory budget well under the working set,
// so reads, stalls and spill re-fetches dominate. Three slots leave one of
// a 4-core host's cores to the main thread and the OS; with four slots a
// preempted worker stalled its whole job and the per-execution spread
// within a run doubled.
//
// Each measured operation executes the same lowered plan from the same
// inputs (the tile caches are emptied first, so every run starts cold).
// The outputs of the last run are compared with the dense EvalProgram
// oracle outside the timed region.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "cluster/real_engine.h"
#include "cluster/sim_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "cost/calibration.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "dfs/tile_cache.h"
#include "exec/executor.h"
#include "lang/expr.h"
#include "lang/interpreter.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/tile_ops.h"
#include "matrix/tiled_matrix.h"
#include "obs/metrics.h"
#include "opt/predictor.h"
#include "perfbench/decorators.h"
#include "perfbench/workloads.h"
#include "verify/verify.h"

namespace cumulon::perfbench {
namespace {

constexpr int kMachines = 3;
constexpr int kSlotsPerMachine = 1;
constexpr double kMB = 1024.0 * 1024.0;

struct RealSpec {
  std::string name;
  std::function<Program()> build;  // the unoptimized program
  // The program the dense oracle evaluates, built here and never passed
  // through the optimizer, so a wrong rewrite cannot hide in both the
  // plan and its reference.
  std::function<Program()> reference;
  std::map<std::string, TileLayout> inputs;
  std::map<std::string, FillKind> fills;
  int64_t tile = 512;
  MatMulParams mm{1, 1, 0};
  double read_latency_s = 0.0;
  double read_bytes_per_s = 0.0;
  int prefetch_threads = 0;  // 0 = no prefetch pool
  int64_t cache_bytes_per_node = 0;  // 0 = no node tile cache
  int64_t memory_budget_bytes = 0;   // 0 = resident execution
};

RealSpec RsvdSpecFor() {
  RealSpec s;
  s.name = "rsvd_stream";
  RsvdSpec r;
  r.m = 4096;
  r.n = 2048;
  r.l = 64;
  s.build = [r] { return BuildRsvd1(r); };
  // BuildRsvd1 writes the chain left to right, which evaluated literally
  // materializes A * A^T (about 100 GFLOP in the dense interpreter); the
  // reference states the same product right to left.
  s.reference = [r] {
    auto a = Expr::Input("A", r.m, r.n);
    auto omega = Expr::Input("Omega", r.n, r.l);
    Program p;
    p.Assign("Y", a * (T(a) * (a * omega)));
    return p;
  };
  s.tile = 256;
  s.inputs = {{"A", TileLayout::Square(r.m, r.n, s.tile)},
              {"Omega", TileLayout::Square(r.n, r.l, s.tile)}};
  s.fills = {{"A", FillKind::kGaussian}, {"Omega", FillKind::kGaussian}};
  // Four output tile rows per task: each task re-reads its skinny operand
  // panel for every row, which is what spills under the budget.
  s.mm = MatMulParams{4, 1, 0};
  s.read_latency_s = 0.002;
  s.read_bytes_per_s = 256.0 * kMB;
  s.prefetch_threads = 4;
  s.cache_bytes_per_node = 4LL << 20;
  // The working set is A (64 MB) plus the skinny panels; each node gets
  // an eighth of it.
  s.memory_budget_bytes = 8LL << 20;
  return s;
}

/// One set-up: the simulated DFS and its store, the engine with its tile
/// caches, the generated inputs and the host calibration.
struct RealWorld {
  std::unique_ptr<SimDfs> dfs;
  std::unique_ptr<DfsTileStore> store;
  std::unique_ptr<RealEngine> engine;
  std::map<std::string, TiledMatrix> bindings;
  CalibrationResult calibration;
  double calibrate_s = 0.0;
};

std::unique_ptr<RealWorld> SetUp(const RealSpec& spec, uint64_t seed,
                                 Gate* gate) {
  auto world = std::make_unique<RealWorld>();
  DfsOptions dfs_options;
  dfs_options.num_nodes = kMachines;
  dfs_options.replication = 1;
  dfs_options.seed = seed;
  dfs_options.read_latency_seconds = spec.read_latency_s;
  dfs_options.read_bytes_per_sec = spec.read_bytes_per_s;
  world->dfs = std::make_unique<SimDfs>(dfs_options);
  world->store = std::make_unique<DfsTileStore>(world->dfs.get());
  if (spec.prefetch_threads > 0) {
    world->store->EnablePrefetch(spec.prefetch_threads);
  }
  RealEngineOptions engine_options;
  engine_options.enable_tile_cache = spec.cache_bytes_per_node > 0;
  engine_options.cache_bytes_per_node = spec.cache_bytes_per_node;
  world->engine = std::make_unique<RealEngine>(
      ClusterConfig{MachineProfile{}, kMachines, kSlotsPerMachine},
      engine_options);
  if (spec.cache_bytes_per_node > 0) {
    world->store->AttachCaches(world->engine->tile_caches());
  }
  Rng rng(seed);
  for (const auto& [name, layout] : spec.inputs) {
    TiledMatrix m{name, layout};
    gate->CheckStatus(GenerateMatrix(m, spec.fills.at(name), 0.0, &rng,
                                     world->store.get()),
                      StrCat("generating ", name));
    world->bindings.emplace(name, m);
  }
  CalibrationOptions cal;
  cal.tile_dim = spec.tile;
  cal.repetitions = 3;
  Stopwatch sw;
  auto calibration = Calibrate(cal);
  world->calibrate_s = sw.ElapsedSeconds();
  gate->CheckStatus(calibration.status(), "calibration");
  if (calibration.ok()) world->calibration = *calibration;
  return world;
}

LoweringOptions LoweringFor(const RealSpec& spec) {
  LoweringOptions lowering;
  lowering.tile_dim = spec.tile;
  const MatMulParams mm = spec.mm;
  lowering.mm_params = [mm](int64_t, int64_t, int64_t) { return mm; };
  lowering.temp_prefix = "bench_tmp";
  return lowering;
}

ExecutorOptions ExecutorOptionsFor(const RealSpec& spec) {
  ExecutorOptions options;
  options.job_startup_seconds = 0.0;
  options.memory_budget_bytes = spec.memory_budget_bytes;
  options.prefetch_budget_bytes =
      spec.prefetch_threads > 0 ? (16LL << 20) : 0;
  return options;
}

ClusterConfig SimClusterFor(const RealSpec& spec, const RealWorld& world) {
  MachineProfile host = world.calibration.ToHostProfile(kSlotsPerMachine);
  if (spec.read_bytes_per_s > 0) {
    host.disk_mbps = spec.read_bytes_per_s / 1e6;  // MachineProfile MB
    host.net_mbps = spec.read_bytes_per_s / 1e6;
  }
  return ClusterConfig{host, kMachines, kSlotsPerMachine};
}

/// Max |got - want| relative to max(1, max |want|) over every output.
double OracleError(const Program& program, const RealWorld& world,
                   const std::map<std::string, TiledMatrix>& outputs,
                   Gate* gate) {
  std::map<std::string, DenseMatrix> env;
  for (const auto& [name, m] : world.bindings) {
    auto dense = LoadDense(m, world.store.get());
    gate->CheckStatus(dense.status(), StrCat("loading input ", name));
    if (!dense.ok()) return INFINITY;
    env.emplace(name, std::move(dense).value());
  }
  auto want = EvalProgram(program, std::move(env));
  gate->CheckStatus(want.status(), "dense oracle");
  if (!want.ok()) return INFINITY;
  double worst = 0.0;
  for (const auto& [name, m] : outputs) {
    auto got = LoadDense(m, world.store.get());
    gate->CheckStatus(got.status(), StrCat("loading output ", name));
    if (!got.ok()) return INFINITY;
    const DenseMatrix& ref = want->at(name);
    if (ref.rows() != got->rows() || ref.cols() != got->cols()) {
      gate->Check(false, StrCat("output ", name, " has the wrong shape"));
      return INFINITY;
    }
    double max_diff = 0.0, max_ref = 1.0;
    for (int64_t r = 0; r < ref.rows(); ++r) {
      for (int64_t c = 0; c < ref.cols(); ++c) {
        max_diff = std::max(max_diff, std::abs(got->At(r, c) - ref.At(r, c)));
        max_ref = std::max(max_ref, std::abs(ref.At(r, c)));
      }
    }
    worst = std::max(worst, max_diff / max_ref);
  }
  return worst;
}

/// Single-core Gemm throughput at the workload's tile size.
double GemmGflops(int64_t t, uint64_t seed, SpanRecorder* spans) {
  Tile a(t, t), b(t, t), c(t, t);
  Rng rng(seed);
  for (int64_t i = 0; i < t * t; ++i) {
    a.mutable_data()[i] = rng.NextGaussian();
    b.mutable_data()[i] = rng.NextGaussian();
  }
  Samples rates;
  const double flops = 2.0 * t * t * t;
  Stopwatch total;
  while (rates.size() < 5 || total.ElapsedSeconds() < 0.4) {
    double seconds = TimeCall(spans, "matrix.gemm", [&] {
      Status st = Gemm(a, b, 1.0, 0.0, &c);
      st.IgnoreError();
    });
    rates.Add(flops / seconds / 1e9);
    if (rates.size() >= 200) break;
  }
  return rates.Median();
}

}  // namespace

int RunRealWorkload(const RunConfig& config) {
  const RealSpec spec = RsvdSpecFor();
  Gate gate;
  Report report;
  int64_t attempted = 0, failed = 0;

  // Set-up, kSetupRepeats times; the last world is the one measured.
  std::unique_ptr<RealWorld> world;
  Samples calibrate_s;
  const Samples setup_s = RepeatSetup(
      kSetupRepeats, [&] { world.reset(); },
      [&] {
        world = SetUp(spec, config.seed, &gate);
        calibrate_s.Add(world->calibrate_s);
      });
  report.Add("setup_s", "s", setup_s);

  const Program program = OptimizeProgram(spec.build());
  const LoweringOptions lowering = LoweringFor(spec);
  auto lowered = Lower(program, world->bindings, lowering);
  gate.CheckStatus(lowered.status(), "lowering");
  if (!lowered.ok()) return FinishRun(config, report, false, 1, 1);

  const TileOpCostModel cost = world->calibration.ToCostModel();
  const ExecutorOptions exec_options = ExecutorOptionsFor(spec);
  TileCacheGroup* caches = world->engine->tile_caches();

  // One measured operation: a cold execution of the whole plan.
  auto run_once = [&](Executor* executor, PlanStats* out) {
    if (caches != nullptr) caches->InvalidatePrefixAll("/matrix/");
    ++attempted;
    auto stats = executor->Run(lowered->plan);
    if (!stats.ok()) {
      ++failed;
      gate.CheckStatus(stats.status(), "plan execution");
      return false;
    }
    if (out != nullptr) *out = std::move(stats).value();
    return true;
  };

  const double untraced_seconds =
      config.trace ? config.seconds / 2 : config.seconds;
  Executor executor(world->store.get(), world->engine.get(), &cost,
                    exec_options);
  const Samples run_s = TimeLoop(untraced_seconds, 5, 100000, [&](int) {
    return run_once(&executor, nullptr);
  });
  // The program's footprint, before the traced runs and the dense oracle
  // (bench-side work) allocate.
  report.AddValue("peak_rss_mb", "MB", PeakRssMb(), 1);

  if (!config.trace) {
    report.Add("run_s", "s", run_s);
  } else {
    SpanRecorder spans;
    MetricsRegistry store_metrics;
    world->store->AttachMetrics(&store_metrics);
    TimingTileStore timing_store(world->store.get(), &spans);
    TimingEngine timing_engine(world->engine.get(), &spans,
                               /*keep_specs=*/true);
    Executor traced(&timing_store, &timing_engine, &cost, exec_options);
    std::vector<PlanStats> plans;
    const Samples traced_s =
        TimeLoop(config.seconds / 2, 5, 100000, [&](int i) {
          timing_engine.ClearSpecs();  // replay the last run's jobs only
          spans.set_run(i);
          ScopedSpan op(&spans, "exec.plan");
          PlanStats stats;
          if (!run_once(&traced, &stats)) return false;
          plans.push_back(std::move(stats));
          return true;
        });
    world->store->AttachMetrics(nullptr);
    const double runs = std::max<double>(1.0, plans.size());

    // dfs: the decorator's counts plus the store's byte counters.
    const TimingTileStore::Counts io = timing_store.counts();
    const MetricsSnapshot snap = store_metrics.Snapshot();
    report.AddValue("dfs.get_n", "count", io.get_n / runs, plans.size());
    report.AddValue("dfs.get_mb", "MB",
                    (snap.CounterOr("dfs.read.bytes", 0) +
                     snap.CounterOr("cache.hit_bytes", 0)) /
                        kMB / runs,
                    plans.size());
    report.AddValue("dfs.get_wait_s", "s", io.get_wait_s / runs,
                    plans.size());
    report.AddValue("dfs.put_n", "count", io.put_n / runs, plans.size());
    report.AddValue("dfs.put_s", "s", io.put_s / runs, plans.size());

    // exec: the returned PlanStats.
    Samples plan_s, refetch_mb, task_s;
    double stall = 0.0, task_total = 0.0, mem_peak = 0.0;
    int64_t hits = 0, misses = 0;
    for (const PlanStats& p : plans) {
      plan_s.Add(p.total_seconds);
      refetch_mb.Add(p.spill_refetch_bytes / kMB);
      stall += p.stall_seconds;
      mem_peak = std::max(mem_peak, p.memory_peak_bytes / kMB);
      hits += p.cache_hits;
      misses += p.cache_misses;
      for (const JobRecord& job : p.jobs) {
        task_total += job.stats.total_task_seconds;
        for (const TaskRunInfo& t : job.stats.task_runs) {
          task_s.Add(t.duration_seconds);
        }
      }
    }
    report.AddValue("dfs.cache_hit_ratio", "ratio",
                    hits + misses > 0
                        ? static_cast<double>(hits) / (hits + misses)
                        : 0.0,
                    hits + misses);
    report.Add("exec.plan_s", "s", plan_s);
    report.AddValue("exec.tasks", "count",
                    plans.empty() ? 0 : plans.back().total_tasks, 1);
    report.AddValue("exec.stall_frac", "ratio",
                    task_total > 0 ? stall / task_total : 0.0,
                    plans.size());
    report.Add("exec.spill_refetch_mb", "MB", refetch_mb);
    report.AddValue("exec.mem_peak_mb", "MB", mem_peak, plans.size());
    report.AddValue("exec.task_p50_s", "s", task_s.Median(), task_s.size());
    report.AddValue("exec.task_max_s", "s", task_s.Max(), task_s.size());

    // cluster: the engine decorator, and a SimEngine replay of the last
    // run's jobs on the calibrated host profile.
    const ClusterConfig sim_cluster = SimClusterFor(spec, *world);
    SimEngineOptions sim_options;
    sim_options.task_startup_seconds = 0.0;
    sim_options.replication = 1;
    sim_options.io_overlap_fraction = spec.prefetch_threads > 0 ? 1.0 : 0.0;
    SimEngine sim(sim_cluster, sim_options);
    Samples job_s, job_err;
    double busy = 0.0, wall = 0.0;
    const auto& jobs = timing_engine.jobs();
    const auto& specs = timing_engine.specs();
    for (const TimingEngine::JobRecord& job : jobs) {
      job_s.Add(job.wall_s);
      busy += job.task_s;
      wall += job.wall_s;
    }
    for (size_t j = 0; j < specs.size(); ++j) {
      const TimingEngine::JobRecord& job = jobs[jobs.size() - specs.size() + j];
      auto predicted = sim.RunJob(specs[j]);
      if (predicted.ok() && job.makespan_s > 0) {
        job_err.Add(100.0 *
                    std::abs(predicted->duration_seconds - job.makespan_s) /
                    job.makespan_s);
      }
    }
    report.AddValue("cluster.jobs", "count", jobs.size() / runs, 1);
    report.Add("cluster.job_s", "s", job_s);
    report.AddValue("cluster.slot_busy_frac", "ratio",
                    wall > 0 ? busy / (wall * kMachines * kSlotsPerMachine)
                             : 0.0,
                    jobs.size());
    report.Add("cluster.job_model_err_pct", "%", job_err);

    // cost + opt: calibration time and the whole-plan prediction.
    report.Add("cost.calibrate_s", "s", calibrate_s);
    ProgramSpec program_spec;
    program_spec.program = program;
    for (const auto& [name, m] : world->bindings) {
      program_spec.inputs.push_back(m);
    }
    PredictorOptions predictor;
    predictor.cost = cost;
    predictor.lowering = lowering;
    predictor.sim = sim_options;
    predictor.job_startup_seconds = 0.0;
    predictor.dfs_replication = 1;
    predictor.memory_budget_bytes = spec.memory_budget_bytes;
    Samples predict_ms;
    double predicted_s = 0.0;
    for (int i = 0; i < 5; ++i) {
      predict_ms.Add(1e3 * TimeCall(&spans, "opt.predict", [&] {
        auto p = PredictProgram(program_spec, sim_cluster, predictor);
        if (p.ok()) predicted_s = p->seconds;
      }));
    }
    report.Add("opt.predict_ms", "ms", predict_ms);
    report.AddValue("plan.model_err_pct", "%",
                    100.0 * std::abs(predicted_s - run_s.Median()) /
                        run_s.Median(),
                    run_s.size());

    // lang + verify: the compile path of this program.
    Samples optimize_ms, lower_ms, verify_ms;
    PlanVerifyOptions verify_options;
    verify_options.cost = &cost;
    verify_options.check_external = true;
    for (const auto& [name, m] : world->bindings) {
      verify_options.external_matrices.insert(name);
    }
    verify_options.require_determinism = true;
    for (int i = 0; i < 5; ++i) {
      optimize_ms.Add(1e3 * TimeCall(&spans, "lang.optimize", [&] {
        Program p = OptimizeProgram(spec.build());
        (void)p;
      }));
      lower_ms.Add(1e3 * TimeCall(&spans, "lang.lower", [&] {
        auto l = Lower(program, world->bindings, lowering);
        l.status().IgnoreError();
      }));
      verify_ms.Add(1e3 * TimeCall(&spans, "verify.plan", [&] {
        const VerifyReport r = VerifyPlan(lowered->plan, verify_options);
        gate.Check(r.ok(), StrCat("lowered plan fails the verifier: ",
                                  r.ToString()));
      }));
    }
    report.Add("lang.optimize_ms", "ms", optimize_ms);
    report.Add("lang.lower_ms", "ms", lower_ms);
    report.Add("verify.ms", "ms", verify_ms);

    // matrix: kernel throughput against the host's FMA peak, and the
    // plan's exact multiply flops.
    const double gemm = GemmGflops(spec.tile, config.seed, &spans);
    const double peak = FmaPeakGflops();
    double flops = 0.0;
    for (const Assignment& a : program.assignments) {
      flops += MatMulFlops(a.expr);
    }
    report.AddValue("matrix.gemm_gflops", "GFLOP/s", gemm, 1);
    report.AddValue("matrix.fma_peak_gflops", "GFLOP/s", peak, 1);
    report.AddValue("matrix.gemm_peak_frac", "ratio",
                    peak > 0 ? gemm / peak : 0.0, 1);
    report.AddValue("matrix.flops_g", "GFLOP", flops / 1e9, 1);

    FinishTrace(config, spans, run_s.Median(), traced_s.Median(), &report);
  }

  // Correctness: the last run's outputs against the dense oracle.
  const int64_t misses_before = gate.misses();
  Stopwatch oracle_sw;
  const double err =
      OracleError(spec.reference(), *world, lowered->outputs, &gate);
  std::printf("oracle: max relative error %.3g (%.1f s)\n", err,
              oracle_sw.ElapsedSeconds());
  gate.Check(err <= 1e-9, StrCat("outputs differ from the dense oracle by ",
                                 err));
  ++attempted;
  if (gate.misses() > misses_before) ++failed;
  return FinishRun(config, report, gate.ok(), attempted, failed);
}

}  // namespace cumulon::perfbench
