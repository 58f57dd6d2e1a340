// svc_openloop: an in-process `cumulon serve` daemon on a unix socket,
// driven open-loop by 4 client connections (one thread and one tenant
// session each). The fleet is pinned (no elastic control) and the workload
// mix is fixed. Arrivals are evenly spaced at the offered rate; the seed
// orders the classes of each phase's submissions.
//
// Phases of the untraced run:
//  - fixed rate: kFixedRate submissions/s for most of the run, in
//    kFixedEpochs epochs, each on a freshly started daemon. SUBMIT latency
//    and completion (terminal POLL) are counted from each submission's due
//    time, so a late generator cannot hide queueing (no coordinated
//    omission). The median completion over all epochs is the workload's
//    run_s; admission is reported in the table (README.md, "Known limits");
//  - rate ladder: the rate doubles from kLadderBase each step while the
//    step keeps admission p90 <= 50 ms, refuses nothing and leaves no
//    growing backlog; rate_at_slo is the highest such rate.
// Every accepted plan must reach DONE; plans are polled to completion by
// the same connections between submissions. The daemon keeps the defaults
// `cumulon serve` runs with (20 ms reaper, 4 concurrent plans), so a plan's
// completion includes the wait for the reaper to absorb its outcome.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "cloud/machine.h"
#include "common/rng.h"
#include "common/strings.h"
#include "lang/lowering.h"
#include "obs/metrics.h"
#include "opt/predictor.h"
#include "opt/search.h"
#include "perfbench/decorators.h"
#include "perfbench/workloads.h"
#include "svc/catalog.h"
#include "svc/client.h"
#include "svc/server.h"
#include "svc/service.h"
#include "verify/verify.h"

namespace cumulon::perfbench {
namespace {

constexpr int kConnections = 4;
// The daemon's per-plan admission cost grows with the number of plans it
// has served (see README.md), so the fixed rate stays well under the rate
// at which the daemon misses the SLO with this mix on a 4-core host
// (160/s; 80/s holds it).
constexpr double kFixedRate = 40.0;        // submissions per second
// The fixed phase takes this share of the run, split into kFixedEpochs
// epochs of at most kFixedSeconds each: the daemon's memory grows faster
// than linearly with the plans it has served (README.md, "Known limits"),
// so each epoch starts a new daemon. Epochs vary as much between them as
// runs do, so the median pooled over several is steadier than one epoch.
constexpr double kFixedShare = 0.8;
constexpr double kFixedSeconds = 13.0;
constexpr int kFixedEpochs = 3;
constexpr double kLadderBase = 40.0;       // first ladder rate
constexpr int kLadderSteps = 4;  // the rest of the run, in equal steps
constexpr double kSloP90Seconds = 0.050;
// A ladder step stops offering load once one SUBMIT takes this long: the
// step has already missed the SLO, and more overload only grows the
// daemon's backlog.
constexpr double kLadderAbortSeconds = 0.250;
constexpr double kPollIntervalSeconds = 0.002;
constexpr double kDrainTimeoutSeconds = 30.0;

/// The fixed mix: class name and weight, the heavy-tailed default of the
/// service load generator (svc/loadgen.cc, DefaultMix). The mm-l and mm-xl
/// plans run the longest simulations, which the daemon serializes.
const std::vector<std::pair<std::string, double>>& Mix() {
  static const std::vector<std::pair<std::string, double>> mix = {
      {"mm-s", 0.55}, {"mm-m", 0.25}, {"mm-l", 0.12}, {"mm-xl", 0.04},
      {"linreg", 0.04}};
  return mix;
}

/// The classes of `n` arrivals in seeded order. Each class gets its share
/// of the mix rounded down, the rest goes to the classes in mix order, so
/// every seed submits the same class counts and only their order differs.
std::vector<std::string> ClassDeck(int64_t n, Rng* rng) {
  std::vector<std::string> deck;
  for (const auto& [name, weight] : Mix()) {
    deck.insert(deck.end(), static_cast<size_t>(weight * n), name);
  }
  for (size_t i = 0; static_cast<int64_t>(deck.size()) < n; ++i) {
    deck.push_back(Mix()[i % Mix().size()].first);
  }
  for (size_t i = deck.size(); i > 1; --i) {
    std::swap(deck[i - 1], deck[rng->NextUint64(i)]);
  }
  return deck;
}

ServiceOptions DaemonOptions() {
  ServiceOptions options;
  auto machine = FindMachine("m1.large");
  if (machine.ok()) options.machine = *machine;
  options.elastic.min_machines = 8;
  options.elastic.max_machines = 8;
  options.initial_machines = 8;
  options.enable_elastic = false;
  options.slots_per_machine = 2;
  options.max_concurrent_plans = 4;
  options.session.default_quota.max_inflight_plans = 1 << 20;
  return options;
}

/// One submission of the open-loop schedule.
struct Arrival {
  double due = 0.0;  // seconds from the phase start
  std::string workload;
};

/// What one connection observed.
struct ConnStats {
  Samples admit_s;     // reply time - due time, accepted or not
  Samples complete_s;  // terminal POLL - due time, accepted plans
  Samples late_s;      // send time - due time
  int64_t submitted = 0;
  int64_t refused = 0;
  int64_t transport_errors = 0;
  int64_t not_done = 0;    // accepted plans whose terminal state != DONE
  int64_t backlog = 0;     // plans still running at the phase's soft stop
  int64_t unfinished = 0;  // plans still running at the hard stop
};

struct Outstanding {
  int64_t plan = 0;
  double due = 0.0;
  double next_poll = 0.0;
};

/// A client connection: transport (optionally decorated), session and the
/// plans it still polls.
struct Connection {
  std::unique_ptr<Transport> transport;
  TimingTransport* timing = nullptr;  // non-null when decorated
  std::unique_ptr<ServiceClient> client;
  std::vector<Outstanding> outstanding;
};

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Polls every due outstanding plan once.
void PollSweep(Connection* conn, Clock::time_point t0, ConnStats* stats) {
  for (size_t i = 0; i < conn->outstanding.size();) {
    Outstanding& o = conn->outstanding[i];
    if (Since(t0) < o.next_poll) {
      ++i;
      continue;
    }
    auto poll = conn->client->Poll(o.plan);
    if (!poll.ok()) {
      ++stats->transport_errors;
      conn->outstanding.erase(conn->outstanding.begin() + i);
      continue;
    }
    if (poll->terminal) {
      stats->complete_s.Add(Since(t0) - o.due);
      if (poll->state != "DONE") ++stats->not_done;
      conn->outstanding.erase(conn->outstanding.begin() + i);
      continue;
    }
    o.next_poll = Since(t0) + kPollIntervalSeconds;
    ++i;
  }
}

/// Sleeps until `until` (seconds from t0) or the next outstanding poll,
/// whichever comes first, so an idle connection thread does not spin.
void SleepUntilNextEvent(const Connection& conn, Clock::time_point t0,
                         double until) {
  for (const Outstanding& o : conn.outstanding) {
    until = std::min(until, o.next_poll);
  }
  std::this_thread::sleep_until(
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(until)));
}

/// Drives `arrivals` (this connection's share, sorted by due time) and then
/// polls the remaining plans until they finish or `hard_stop` passes;
/// plans still running at `soft_stop` count as backlog.
void DriveConnection(Connection* conn, const std::vector<Arrival>& arrivals,
                     Clock::time_point t0, double soft_stop, double hard_stop,
                     std::atomic<bool>* abort, ConnStats* stats) {
  for (const Arrival& a : arrivals) {
    if (abort != nullptr && abort->load()) break;
    while (Since(t0) < a.due) {
      PollSweep(conn, t0, stats);
      SleepUntilNextEvent(*conn, t0, a.due);
    }
    stats->late_s.Add(Since(t0) - a.due);
    ++stats->submitted;
    auto reply = conn->client->Submit(a.workload);
    stats->admit_s.Add(Since(t0) - a.due);
    if (abort != nullptr && Since(t0) - a.due > kLadderAbortSeconds) {
      abort->store(true);
    }
    if (!reply.ok()) {
      ++stats->refused;
      continue;
    }
    conn->outstanding.push_back({reply->plan, a.due, Since(t0)});
  }
  bool backlog_counted = false;
  while (!conn->outstanding.empty() && Since(t0) < hard_stop) {
    if (!backlog_counted && Since(t0) >= soft_stop) {
      stats->backlog = static_cast<int64_t>(conn->outstanding.size());
      backlog_counted = true;
    }
    PollSweep(conn, t0, stats);
    if (!conn->outstanding.empty()) SleepUntilNextEvent(*conn, t0, hard_stop);
  }
  stats->unfinished += static_cast<int64_t>(conn->outstanding.size());
  conn->outstanding.clear();
}

/// Adds what `s` observed to `total`.
void Merge(const ConnStats& s, ConnStats* total) {
  total->admit_s.Append(s.admit_s);
  total->complete_s.Append(s.complete_s);
  total->late_s.Append(s.late_s);
  total->submitted += s.submitted;
  total->refused += s.refused;
  total->transport_errors += s.transport_errors;
  total->not_done += s.not_done;
  total->backlog += s.backlog;
  total->unfinished += s.unfinished;
}

/// Runs one open-loop phase at `rate` for `seconds` over the connections
/// and merges what they saw. Plans running `seconds` after the last
/// arrival are backlog; polling gives up kDrainTimeoutSeconds later. With
/// `abortable`, the phase stops offering load at the first SUBMIT slower
/// than kLadderAbortSeconds.
ConnStats RunPhase(std::vector<Connection>* conns, double rate,
                   double seconds, Rng* rng, bool abortable) {
  std::atomic<bool> abort{false};
  std::vector<std::vector<Arrival>> shares(conns->size());
  const int64_t n = static_cast<int64_t>(rate * seconds);
  const std::vector<std::string> deck = ClassDeck(n, rng);
  for (int64_t i = 0; i < n; ++i) {
    shares[i % conns->size()].push_back(
        Arrival{static_cast<double>(i) / rate, deck[i]});
  }
  std::vector<ConnStats> stats(conns->size());
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < conns->size(); ++c) {
    threads.emplace_back([&, c] {
      DriveConnection(&(*conns)[c], shares[c], t0, 2 * seconds,
                      2 * seconds + kDrainTimeoutSeconds,
                      abortable ? &abort : nullptr, &stats[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  ConnStats total;
  for (const ConnStats& s : stats) Merge(s, &total);
  return total;
}

/// One daemon with its server and client connections.
struct Daemon {
  MetricsRegistry metrics;
  std::unique_ptr<CumulonService> service;
  std::unique_ptr<ServiceServer> server;
  std::vector<Connection> conns;
  std::string address;
};

std::unique_ptr<Daemon> StartDaemon(const RunConfig& config, int index,
                                    SpanRecorder* spans, Gate* gate) {
  auto d = std::make_unique<Daemon>();
  ServiceOptions options = DaemonOptions();
  options.metrics = &d->metrics;
  d->service = std::make_unique<CumulonService>(options);
  d->server = std::make_unique<ServiceServer>(d->service.get());
  // A relative socket path keeps the socket inside the working directory
  // and well under the sun_path limit.
  d->address = StrCat("unix:", config.out_dir, "/svc", getpid(), "_", index,
                      ".sock");
  Status started = d->server->Start(d->address);
  gate->CheckStatus(started, "starting the server");
  if (!started.ok()) return d;
  for (int c = 0; c < kConnections; ++c) {
    auto socket = SocketTransport::Connect(d->address);
    gate->CheckStatus(socket.status(), "connecting");
    if (!socket.ok()) return d;
    Connection conn;
    if (spans != nullptr) {
      auto timing = std::make_unique<TimingTransport>(
          std::unique_ptr<Transport>(std::move(socket).value()), spans);
      conn.timing = timing.get();
      conn.transport = std::move(timing);
    } else {
      conn.transport = std::move(socket).value();
    }
    conn.client = std::make_unique<ServiceClient>(conn.transport.get());
    gate->CheckStatus(conn.client->Hello(StrCat("tenant", c)), "HELLO");
    d->conns.push_back(std::move(conn));
  }
  return d;
}

/// Warms the per-class estimate cache: one plan of every class, polled to
/// completion, so the measured phases see the daemon's steady state.
void WarmUp(Daemon* d, Gate* gate) {
  Connection& conn = d->conns.front();
  for (const auto& [name, weight] : Mix()) {
    auto reply = conn.client->Submit(name);
    gate->CheckStatus(reply.status(), StrCat("warm-up SUBMIT ", name));
    if (!reply.ok()) continue;
    for (int i = 0; i < 20000; ++i) {
      auto poll = conn.client->Poll(reply->plan);
      if (!poll.ok() || poll->terminal) {
        gate->Check(poll.ok() && poll->state == "DONE",
                    StrCat("warm-up plan ", name, " did not finish"));
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

void StopDaemon(Daemon* d, Gate* gate) {
  if (d->conns.empty()) {
    d->server->Stop();
  } else {
    auto drained = d->conns.front().client->Drain();
    gate->CheckStatus(drained.status(), "DRAIN");
  }
  d->server->WaitUntilStopped();
  d->conns.clear();
}

}  // namespace

int RunSvcOpenLoop(const RunConfig& config) {
  Gate gate;
  Report report;
  int64_t attempted = 0, failed = 0;
  Rng rng(config.seed);
  // Declared before the daemon: its decorated transports record here until
  // the final DRAIN.
  SpanRecorder spans;

  // Set-up (daemon start, connections, HELLOs and the warm-up plans),
  // kSetupRepeats times; the last daemon is the one measured. Without the
  // warm-up a set-up takes about 1 ms and spread over 100% between runs.
  std::unique_ptr<Daemon> daemon;
  int starts = 0;
  const Samples setup_s = RepeatSetup(
      kSetupRepeats,
      [&] {
        StopDaemon(daemon.get(), &gate);
        daemon.reset();
      },
      [&] {
        daemon = StartDaemon(config, starts++, nullptr, &gate);
        if (daemon->conns.size() == kConnections) WarmUp(daemon.get(), &gate);
      });
  report.Add("setup_s", "s", setup_s);
  if (daemon->conns.size() != kConnections) {
    return FinishRun(config, report, false, 1, 1);
  }

  auto account = [&](const ConnStats& s) {
    attempted += s.submitted;
    failed += s.refused + s.transport_errors + s.not_done + s.unfinished;
    gate.Check(s.not_done == 0, StrCat(s.not_done, " accepted plans did not "
                                       "reach DONE"));
    gate.Check(s.unfinished == 0, StrCat(s.unfinished, " accepted plans "
                                         "were still running at the end"));
  };

  // The traced run compares one untraced epoch with one traced epoch.
  const int epochs = config.trace ? 1 : kFixedEpochs;
  const double epoch_seconds =
      std::min(kFixedSeconds,
               config.seconds * (config.trace ? 0.5 : kFixedShare) / epochs);
  ConnStats fixed;
  double fixed_cpu_s = 0.0, fixed_wall_s = 0.0;
  for (int e = 0; e < epochs; ++e) {
    if (e > 0) {
      StopDaemon(daemon.get(), &gate);
      daemon.reset();  // before the next start: peak RSS is one daemon's
      daemon = StartDaemon(config, starts++, nullptr, &gate);
      if (daemon->conns.size() != kConnections) {
        return FinishRun(config, report, false, attempted + 1, failed + 1);
      }
      WarmUp(daemon.get(), &gate);
    }
    const double cpu0 = ProcessCpuSeconds();
    Stopwatch wall;
    const ConnStats epoch =
        RunPhase(&daemon->conns, kFixedRate, epoch_seconds, &rng, false);
    fixed_cpu_s += ProcessCpuSeconds() - cpu0;
    fixed_wall_s += wall.ElapsedSeconds();
    account(epoch);
    std::printf("fixed epoch %d: %lld submitted at %.0f/s, %lld refused, "
                "admission p50 %.2f ms p99 %.2f ms, completion p50 %.2f ms, "
                "generator late p50 %.3f ms\n",
                e + 1, static_cast<long long>(epoch.submitted), kFixedRate,
                static_cast<long long>(epoch.refused),
                1e3 * epoch.admit_s.Median(),
                1e3 * epoch.admit_s.Quantile(0.99),
                1e3 * epoch.complete_s.Median(), 1e3 * epoch.late_s.Median());
    Merge(epoch, &fixed);
    // One daemon's footprint: later daemons reuse what the allocator kept
    // from earlier ones, and the ladder deliberately overloads the daemon
    // in its last step.
    if (e == 0) report.AddValue("peak_rss_mb", "MB", PeakRssMb(), 1);
  }
  const double fixed_cpu_util = fixed_cpu_s / (fixed_wall_s * HostCores());

  if (!config.trace) {
    // The measured operation is one plan, from its SUBMIT's due time to
    // the POLL that finds it terminal.
    report.Add("run_s", "s", fixed.complete_s);
    report.Add("complete_p50_s", "s", fixed.complete_s);  // = run_s
    Samples admit_ms;
    for (double v : fixed.admit_s.values()) admit_ms.Add(1e3 * v);
    report.Add("admit_p50_ms", "ms", admit_ms);
    report.AddValue("admit_p99_ms", "ms", admit_ms.Quantile(0.99),
                    admit_ms.size());

    // The ladder: double the rate while the SLO holds.
    double rate = kLadderBase, rate_at_slo = 0.0;
    int64_t ladder_n = 0;
    const double step_seconds =
        (config.seconds - epochs * epoch_seconds) / kLadderSteps;
    for (int i = 0; i < kLadderSteps; ++i, rate *= 2) {
      // The step's plans must all finish within one more step length,
      // or the backlog is growing.
      const ConnStats step =
          RunPhase(&daemon->conns, rate, step_seconds, &rng, true);
      ladder_n += step.submitted;
      account(step);
      const bool slo = step.admit_s.Quantile(0.9) <= kSloP90Seconds &&
                       step.refused == 0 && step.backlog == 0;
      std::printf("ladder %.0f/s: %lld submitted, admission p90 %.2f ms, "
                  "%lld refused, backlog %lld -> %s\n",
                  rate, static_cast<long long>(step.submitted),
                  1e3 * step.admit_s.Quantile(0.9),
                  static_cast<long long>(step.refused),
                  static_cast<long long>(step.backlog),
                  slo ? "within SLO" : "SLO missed");
      if (!slo) break;
      rate_at_slo = rate;
    }
    report.AddValue("rate_at_slo", "1/s", rate_at_slo, ladder_n);
  } else {
    // The traced phase: the same fixed rate through decorated transports.
    StopDaemon(daemon.get(), &gate);
    daemon.reset();
    daemon = StartDaemon(config, starts++, &spans, &gate);
    if (daemon->conns.size() != kConnections) {
      return FinishRun(config, report, false, attempted + 1, failed + 1);
    }
    WarmUp(daemon.get(), &gate);
    const ConnStats traced =
        RunPhase(&daemon->conns, kFixedRate, epoch_seconds, &rng, false);
    account(traced);

    Samples submit_rtt, poll_rtt;
    int64_t rpc_n = 0;
    for (const Connection& conn : daemon->conns) {
      submit_rtt.Append(conn.timing->submit_rtt_s());
      poll_rtt.Append(conn.timing->poll_rtt_s());
      rpc_n += conn.timing->calls();
    }
    auto ms = [](const Samples& s) {
      Samples out;
      for (double v : s.values()) out.Add(1e3 * v);
      return out;
    };
    report.Add("svc.submit_rtt_p50_ms", "ms", ms(submit_rtt));
    report.Add("svc.poll_rtt_p50_ms", "ms", ms(poll_rtt));
    report.AddValue("svc.rpc_n", "count", rpc_n, 1);
    report.Add("svc.gen_late_ms", "ms", ms(traced.late_s));
    report.AddValue("svc.cpu_util", "ratio", fixed_cpu_util, 1);

    // The daemon's own view: its STATS frame and metrics registry.
    auto stats = daemon->conns.front().client->Stats();
    gate.CheckStatus(stats.status(), "STATS");
    const MetricsSnapshot snap = daemon->metrics.Snapshot();
    auto hist = [&](const std::string& name) {
      auto it = snap.histograms.find(name);
      return it == snap.histograms.end() ? HistogramSnapshot{} : it->second;
    };
    report.AddValue("svc.admission_p50_ms", "ms",
                    1e3 * hist("svc.submit.admission_seconds").p50,
                    hist("svc.submit.admission_seconds").count);
    report.AddValue("sched.queue_wait_p50_s", "s",
                    hist("sched.queue_wait_seconds").p50,
                    hist("sched.queue_wait_seconds").count);
    report.AddValue("sched.run_p50_s", "s", hist("sched.run_seconds").p50,
                    hist("sched.run_seconds").count);
    report.AddValue("sched.admitted", "count",
                    snap.CounterOr("sched.admitted", 0), 1);
    report.AddValue("sched.rejected", "count",
                    snap.CounterOr("sched.rejected", 0), 1);
    if (stats.ok()) {
      std::printf("daemon STATS: %s\n", stats->ToString().c_str());
    }

    // Timed calls into the SUBMIT path's layers, per class of the mix:
    // catalog + lowering, the verifier, and the admission estimate.
    const ServiceOptions options = DaemonOptions();
    const ClusterConfig cluster{options.machine, options.elastic.max_machines,
                                options.slots_per_machine};
    PredictorOptions predictor = options.predictor;
    predictor.lowering.tile_dim = options.tile_dim;
    Samples lower_ms, verify_ms, estimate_ms;
    for (const auto& [name, weight] : Mix()) {
      auto spec = MakeCatalogWorkload(name, options.scale, options.tile_dim);
      gate.CheckStatus(spec.status(), StrCat("catalog ", name));
      if (!spec.ok()) continue;
      std::map<std::string, TiledMatrix> bindings;
      for (const TiledMatrix& m : spec->inputs) bindings.emplace(m.name, m);
      for (int rep = 0; rep < 5; ++rep) {
        Result<LoweredProgram> lowered = Status::Internal("not lowered");
        lower_ms.Add(1e3 * TimeCall(&spans, "lang.lower", [&] {
          lowered = Lower(spec->program, bindings, predictor.lowering);
        }));
        gate.CheckStatus(lowered.status(), StrCat("lowering ", name));
        if (!lowered.ok()) continue;
        PlanVerifyOptions verify_options;
        verify_options.cost = &predictor.cost;
        verify_options.check_external = true;
        for (const auto& [input, m] : bindings) {
          verify_options.external_matrices.insert(input);
        }
        verify_options.require_determinism = true;
        verify_ms.Add(1e3 * TimeCall(&spans, "verify.plan", [&] {
          const VerifyReport r = VerifyPlan(lowered->plan, verify_options);
          gate.Check(r.ok(), StrCat(name, ": ", r.ToString()));
        }));
        estimate_ms.Add(1e3 * TimeCall(&spans, "opt.estimate", [&] {
          auto e = EstimateForAdmission(*spec, cluster, predictor);
          gate.CheckStatus(e.status(), StrCat("estimate ", name));
        }));
      }
    }
    report.Add("lang.lower_ms", "ms", lower_ms);
    report.Add("verify.ms", "ms", verify_ms);
    report.Add("opt.estimate_ms", "ms", estimate_ms);

    // The planning query a tenant runs before submitting: every catalog
    // machine type at 1..8 machines for the catalog's paper programs.
    SearchSpace space;
    space.cluster_sizes = {1, 2, 4, 8};
    double candidates = 0, frontier = 0;
    for (const char* name : {"rsvd", "gnmf"}) {
      auto spec = MakeCatalogWorkload(name, options.scale, options.tile_dim);
      gate.CheckStatus(spec.status(), StrCat("catalog ", name));
      if (!spec.ok()) continue;
      Result<std::vector<PlanPoint>> points = Status::Internal("no search");
      TimeCall(&spans, "opt.enumerate", [&] {
        points = EnumeratePlans(*spec, space, predictor);
      });
      gate.CheckStatus(points.status(), StrCat("EnumeratePlans ", name));
      if (!points.ok()) continue;
      candidates += points->size();
      frontier += ParetoFrontier(*points).size();
    }
    report.AddValue("opt.candidates", "count", candidates, 2);
    report.AddValue("opt.frontier_n", "count", frontier, 2);
    report.AddValue("matrix.fma_peak_gflops", "GFLOP/s", FmaPeakGflops(), 1);
    FinishTrace(config, spans, fixed.complete_s.Median(),
                traced.complete_s.Median(), &report);
  }

  StopDaemon(daemon.get(), &gate);
  for (int i = 0; i < starts; ++i) {
    unlink(StrCat(config.out_dir, "/svc", getpid(), "_", i, ".sock").c_str());
  }
  return FinishRun(config, report, gate.ok(), attempted, failed);
}

}  // namespace cumulon::perfbench
