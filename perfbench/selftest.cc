// Self-tests of the timing decorators: with and without each decorator the
// system must produce identical results, and the decorators' counts must
// equal the counters they shadow (PlanStats and the store's dfs.* /
// cache.* metrics, the daemon's svc.rpc.requests).

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "cloud/machine.h"
#include "cluster/real_engine.h"
#include "cluster/sim_engine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dfs/dfs_tile_store.h"
#include "dfs/sim_dfs.h"
#include "exec/executor.h"
#include "lang/logical_optimizer.h"
#include "lang/lowering.h"
#include "lang/programs.h"
#include "matrix/tiled_matrix.h"
#include "obs/metrics.h"
#include "perfbench/decorators.h"
#include "perfbench/workloads.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"

namespace cumulon::perfbench {
namespace {

struct SmallRun {
  std::map<std::string, DenseMatrix> outputs;
  PlanStats stats;
  MetricsSnapshot store_metrics;
  TimingTileStore::Counts io;
  std::vector<TimingEngine::JobRecord> jobs;
};

/// One RSVD-1 execution on a fresh world, optionally through the store and
/// engine decorators.
SmallRun RunSmallRsvd(bool decorated, bool prefetch, Gate* gate) {
  SmallRun out;
  DfsOptions dfs_options;
  dfs_options.num_nodes = 2;
  dfs_options.replication = 1;
  SimDfs dfs(dfs_options);
  DfsTileStore store(&dfs);
  if (prefetch) store.EnablePrefetch(4);
  RealEngineOptions engine_options;
  engine_options.enable_tile_cache = true;
  engine_options.cache_bytes_per_node = 1 << 20;
  RealEngine engine(ClusterConfig{MachineProfile{}, 2, 2}, engine_options);
  store.AttachCaches(engine.tile_caches());

  RsvdSpec spec{512, 256, 16};
  std::map<std::string, TiledMatrix> bindings = {
      {"A", {"A", TileLayout::Square(spec.m, spec.n, 64)}},
      {"Omega", {"Omega", TileLayout::Square(spec.n, spec.l, 64)}}};
  Rng rng(5);
  for (const auto& [name, m] : bindings) {
    gate->CheckStatus(
        GenerateMatrix(m, FillKind::kGaussian, 0.0, &rng, &store),
        "generating inputs");
  }
  LoweringOptions lowering;
  lowering.tile_dim = 64;
  lowering.mm_params = [](int64_t, int64_t, int64_t) {
    return MatMulParams{2, 1, 0};
  };
  auto lowered = Lower(OptimizeProgram(BuildRsvd1(spec)), bindings, lowering);
  gate->CheckStatus(lowered.status(), "lowering");
  if (!lowered.ok()) return out;

  MetricsRegistry store_metrics;
  store.AttachMetrics(&store_metrics);
  TimingTileStore timing_store(&store, nullptr);
  TimingEngine timing_engine(&engine, nullptr, /*keep_specs=*/false);
  TileOpCostModel cost;
  ExecutorOptions exec_options;
  exec_options.job_startup_seconds = 0.0;
  exec_options.prefetch_budget_bytes = prefetch ? (1 << 20) : 0;
  exec_options.memory_budget_bytes = 2 << 20;
  Executor executor(decorated ? static_cast<TileStore*>(&timing_store)
                              : static_cast<TileStore*>(&store),
                    decorated ? static_cast<Engine*>(&timing_engine)
                              : static_cast<Engine*>(&engine),
                    &cost, exec_options);
  auto stats = executor.Run(lowered->plan);
  gate->CheckStatus(stats.status(), "executing");
  store.AttachMetrics(nullptr);
  if (!stats.ok()) return out;
  out.stats = *stats;
  out.store_metrics = store_metrics.Snapshot();
  out.io = timing_store.counts();
  out.jobs = timing_engine.jobs();
  for (const auto& [name, m] : lowered->outputs) {
    auto dense = LoadDense(m, &store);
    gate->CheckStatus(dense.status(), "loading outputs");
    if (dense.ok()) out.outputs.emplace(name, std::move(dense).value());
  }
  return out;
}

bool BitIdentical(const std::map<std::string, DenseMatrix>& a,
                  const std::map<std::string, DenseMatrix>& b) {
  if (a.size() != b.size() || a.empty()) return false;
  for (const auto& [name, m] : a) {
    auto it = b.find(name);
    if (it == b.end() || it->second.rows() != m.rows() ||
        it->second.cols() != m.cols()) {
      return false;
    }
    for (int64_t r = 0; r < m.rows(); ++r) {
      for (int64_t c = 0; c < m.cols(); ++c) {
        if (m.At(r, c) != it->second.At(r, c)) return false;
      }
    }
  }
  return true;
}

void TestStoreAndEngine(bool prefetch, Gate* gate) {
  const std::string mode = prefetch ? "prefetch on" : "prefetch off";
  const SmallRun plain = RunSmallRsvd(false, prefetch, gate);
  const SmallRun timed = RunSmallRsvd(true, prefetch, gate);
  gate->Check(BitIdentical(plain.outputs, timed.outputs),
              StrCat(mode, ": outputs differ with the decorators"));
  gate->Check(plain.stats.total_tasks == timed.stats.total_tasks &&
                  plain.stats.jobs.size() == timed.stats.jobs.size(),
              StrCat(mode, ": plan shape differs with the decorators"));

  // Engine decorator vs PlanStats.
  int64_t tasks = 0;
  for (const auto& job : timed.jobs) tasks += job.tasks;
  gate->Check(timed.jobs.size() == timed.stats.jobs.size(),
              StrCat(mode, ": decorator saw ", timed.jobs.size(),
                     " jobs, PlanStats has ", timed.stats.jobs.size()));
  gate->Check(tasks == timed.stats.total_tasks,
              StrCat(mode, ": decorator saw ", tasks, " tasks, PlanStats has ",
                     timed.stats.total_tasks));

  // Store decorator vs the store's own counters.
  const MetricsSnapshot& m = timed.store_metrics;
  gate->Check(timed.io.put_n == m.CounterOr("dfs.write.ops", -1),
              StrCat(mode, ": put_n ", timed.io.put_n, " vs dfs.write.ops ",
                     m.CounterOr("dfs.write.ops", -1)));
  if (!prefetch) {
    // Every synchronous Get is one cache hit or one DFS read.
    const int64_t shadow =
        m.CounterOr("dfs.read.ops", 0) + m.CounterOr("cache.hits", 0);
    gate->Check(timed.io.get_n == shadow,
                StrCat(mode, ": get_n ", timed.io.get_n,
                       " vs dfs.read.ops + cache.hits ", shadow));
    gate->Check(timed.io.get_n > 0, "no reads were observed");
    gate->Check(timed.stats.cache_hits == m.CounterOr("cache.hits", -1),
                StrCat(mode, ": PlanStats cache hits ",
                       timed.stats.cache_hits, " vs cache.hits ",
                       m.CounterOr("cache.hits", -1)));
  } else {
    // Every async request is a cache hit, a new fetch or a coalesced one;
    // hints take the same three paths.
    const int64_t shadow = m.CounterOr("prefetch.hit", 0) +
                           m.CounterOr("prefetch.issued", 0) +
                           m.CounterOr("prefetch.coalesced", 0);
    const int64_t requests = timed.io.get_async_n + timed.io.prefetch_n;
    gate->Check(requests == shadow,
                StrCat(mode, ": async requests + hints ", requests,
                       " vs prefetch.hit + issued + coalesced ", shadow));
  }
  std::printf("store/engine decorators (%s): %lld jobs, %d tasks, %lld "
              "gets, %lld puts\n",
              mode.c_str(), static_cast<long long>(timed.jobs.size()),
              timed.stats.total_tasks, static_cast<long long>(timed.io.get_n),
              static_cast<long long>(timed.io.put_n));
}

/// The engine decorator over the simulator: predictions are unchanged.
void TestSimEngine(Gate* gate) {
  auto machine = FindMachine("m1.large");
  gate->CheckStatus(machine.status(), "machine catalog");
  if (!machine.ok()) return;
  const ClusterConfig cluster{*machine, 4, 2};
  double seconds[2] = {0, 0};
  int64_t jobs = 0;
  for (int decorated = 0; decorated < 2; ++decorated) {
    DfsOptions dfs_options;
    dfs_options.num_nodes = cluster.num_machines;
    SimDfs dfs(dfs_options);
    DfsTileStore store(&dfs);
    SimEngine sim(cluster, SimEngineOptions{});
    TimingEngine timing(&sim, nullptr, false);
    const TiledMatrix a{"A", TileLayout::Square(8192, 8192, 1024)};
    const TiledMatrix b{"B", TileLayout::Square(8192, 8192, 1024)};
    for (const TiledMatrix& m : {a, b}) {
      for (int64_t r = 0; r < m.layout.grid_rows(); ++r) {
        for (int64_t c = 0; c < m.layout.grid_cols(); ++c) {
          Status st = store.PutMeta(m.name, TileId{r, c},
                                    16 + 1024 * 1024 * 8, -1);
          st.IgnoreError();
        }
      }
    }
    LoweringOptions lowering;
    lowering.tile_dim = 1024;
    auto product = Expr::MatMul(Expr::Input("A", 8192, 8192),
                                Expr::Input("B", 8192, 8192));
    gate->CheckStatus(product.status(), "building the sim program");
    if (!product.ok()) return;
    Program program;
    program.Assign("C", *product);
    auto lowered = Lower(program, {{"A", a}, {"B", b}}, lowering);
    gate->CheckStatus(lowered.status(), "lowering the sim plan");
    if (!lowered.ok()) return;
    TileOpCostModel cost;
    ExecutorOptions options;
    options.real_mode = false;
    Executor executor(&store, decorated ? static_cast<Engine*>(&timing)
                                        : static_cast<Engine*>(&sim),
                      &cost, options);
    auto stats = executor.Run(lowered->plan);
    gate->CheckStatus(stats.status(), "simulating");
    if (!stats.ok()) return;
    seconds[decorated] = stats->total_seconds;
    if (decorated) {
      jobs = static_cast<int64_t>(timing.jobs().size());
      gate->Check(jobs == static_cast<int64_t>(stats->jobs.size()),
                  "sim: decorator job count differs from PlanStats");
    }
  }
  gate->Check(seconds[0] == seconds[1] && seconds[0] > 0,
              StrCat("sim: prediction differs with the decorator: ",
                     seconds[0], " vs ", seconds[1]));
  std::printf("engine decorator over the simulator: %lld jobs, %.3f s "
              "predicted either way\n",
              static_cast<long long>(jobs), seconds[0]);
}

/// The transport decorator: the same request sequence gives the same
/// replies, and its call count equals the daemon's svc.rpc.requests.
void TestTransport(Gate* gate) {
  JsonValue replies[2];
  for (int decorated = 0; decorated < 2; ++decorated) {
    MetricsRegistry metrics;
    ServiceOptions options;
    options.metrics = &metrics;
    options.reaper_interval_seconds = 0.002;
    CumulonService service(options);
    ServiceServer server(&service);
    const std::string address =
        StrCat("unix:.bench_out/selftest", getpid(), "_", decorated, ".sock");
    Status started = server.Start(address);
    gate->CheckStatus(started, "starting the server");
    if (!started.ok()) return;
    auto socket = SocketTransport::Connect(address);
    gate->CheckStatus(socket.status(), "connecting");
    if (!socket.ok()) return;
    std::unique_ptr<Transport> transport = std::move(socket).value();
    TimingTransport* timing = nullptr;
    if (decorated) {
      auto wrapped = std::make_unique<TimingTransport>(std::move(transport),
                                                       nullptr);
      timing = wrapped.get();
      transport = std::move(wrapped);
    }
    ServiceClient client(transport.get());
    gate->CheckStatus(client.Hello("selftest"), "HELLO");
    auto submit = client.Submit("mm-s");
    gate->CheckStatus(submit.status(), "SUBMIT");
    std::string state;
    for (int i = 0; submit.ok() && i < 5000; ++i) {
      auto poll = client.Poll(submit->plan);
      if (!poll.ok() || poll->terminal) {
        state = poll.ok() ? poll->state : "error";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JsonValue summary = JsonValue::Object();
    summary.Set("state", state)
        .Set("estimate_seconds", submit.ok() ? submit->estimate_seconds : -1)
        .Set("estimate_dollars", submit.ok() ? submit->estimate_dollars : -1);
    replies[decorated] = summary;
    auto drained = client.Drain();
    gate->CheckStatus(drained.status(), "DRAIN");
    server.WaitUntilStopped();
    unlink(address.substr(5).c_str());
    if (timing != nullptr) {
      const int64_t served = metrics.Snapshot().CounterOr(
          "svc.rpc.requests", -1);
      gate->Check(timing->calls() == served,
                  StrCat("transport: decorator counted ", timing->calls(),
                         " calls, daemon served ", served));
      std::printf("transport decorator: %lld calls, final state %s\n",
                  static_cast<long long>(timing->calls()), state.c_str());
    }
    gate->Check(state == "DONE", StrCat("transport: plan ended ", state));
  }
  gate->Check(replies[0].ToString() == replies[1].ToString(),
              StrCat("transport: replies differ with the decorator: ",
                     replies[0].ToString(), " vs ", replies[1].ToString()));
}

}  // namespace

int RunSelfTest() {
  Gate gate;
  TestStoreAndEngine(/*prefetch=*/false, &gate);
  TestStoreAndEngine(/*prefetch=*/true, &gate);
  TestSimEngine(&gate);
  TestTransport(&gate);
  std::printf("selftest: %s (%lld misses)\n", gate.ok() ? "PASS" : "FAIL",
              static_cast<long long>(gate.misses()));
  return gate.ok() ? 0 : 1;
}

}  // namespace cumulon::perfbench
