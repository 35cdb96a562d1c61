// Benchmark driver. One invocation runs one workload:
//
//   aurora_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR]
//   aurora_perfbench --selftest --seed N [--workload NAME]
//
// --trace 0 measures the end-to-end metrics with every tracer off; --trace 1
// is the separate traced run that yields the per-layer metrics. Either way
// every output is checked against the workload's reference model, and the
// last line on stdout is the JSON result
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A result file with host facts (and, traced, a span CSV) goes to --out-dir.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "probes.h"
#include "runtimes.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Fresh topology builds per run; setup_s is their median.
constexpr int kSetupReps = 51;
/// Memory budget and store cache of the traced run's storage pass on
/// workloads that set no budget of their own.
constexpr size_t kProbeBudgetBytes = 16 * 1024;
constexpr size_t kProbeStoreCacheBytes = 4 << 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
  std::string out_dir = ".bench_build/perfbench-results";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--selftest") {
      a->selftest = true;
    } else if (arg == "--workload" && value(&v)) {
      a->workload = v;
    } else if (arg == "--seed" && value(&v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds" && value(&v)) {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (arg == "--trace" && value(&v)) {
      a->trace = std::atoi(v.c_str());
    } else if (arg == "--out-dir" && value(&v)) {
      a->out_dir = v;
    } else {
      std::cerr << "unknown or incomplete argument: " << arg << "\n";
      return false;
    }
  }
  if (!a->selftest && (a->workload.empty() || a->seconds <= 0)) {
    std::cerr << "usage: aurora_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n"
                 "       aurora_perfbench --selftest --seed N [--workload NAME]\n";
    return false;
  }
  return true;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
        << Num(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}";
  return out.str();
}

/// Everything one invocation reports.
struct Outcome {
  std::vector<Metric> metrics;
  Tally tally;
  uint64_t attempted = 0;
  uint64_t refused = 0;
  bool tracer_stayed_off = true;
  std::vector<std::string> notes;  // human-readable facts for the log

  void Add(const PassResult& p) {
    tally.matched += p.tally.matched;
    tally.missing += p.tally.missing;
    tally.mismatched += p.tally.mismatched;
    if (tally.first_error.empty()) tally.first_error = p.tally.first_error;
    attempted += p.attempted;
    refused += p.refused_inputs.size();
  }
  uint64_t failed() const { return refused + tally.missing; }
  bool correct() const { return tally.mismatched == 0 && tracer_stayed_off; }
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Div(double a, double b) { return b == 0 ? 0 : a / b; }

size_t SampleCount(const PassResult& p) {
  size_t n = 0;
  for (const auto& w : p.latency_windows) n += w.size();
  return n;
}

/// The p-th latency percentile over the quietest quarter of the open-loop
/// windows: windows ranked by their own p-th percentile, the lowest quarter
/// pooled. Load from outside the program (a host descheduling a vCPU for
/// milliseconds, seconds of memory contention) only ever adds latency.
/// `pooled` receives the pool's size.
double QuietPercentile(const std::vector<std::vector<double>>& windows,
                       double p, size_t* pooled) {
  std::vector<std::pair<double, const std::vector<double>*>> ranked;
  for (const auto& w : windows) {
    if (!w.empty()) ranked.push_back({Percentile(w, p), &w});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<double> pool;
  for (size_t i = 0; i < (ranked.size() + 3) / 4; ++i) {
    pool.insert(pool.end(), ranked[i].second->begin(), ranked[i].second->end());
  }
  *pooled = pool.size();
  return Percentile(pool, p);
}

/// Mean of the first and last quarter of the generator lags: a backlog that
/// grows over the open-loop phase shows as a rising lag.
std::string LagTrend(const std::vector<double>& lag) {
  if (lag.size() < 4) return "n/a";
  const size_t q = lag.size() / 4;
  double first = 0, last = 0;
  for (size_t i = 0; i < q; ++i) {
    first += lag[i];
    last += lag[lag.size() - 1 - i];
  }
  return "first quarter " + Num(first / q) + " us, last quarter " +
         Num(last / q) + " us";
}

// ---- --trace 0 ----------------------------------------------------------------

Outcome EndToEnd(const Workload& w, double seconds) {
  Outcome out;
  const double setup_s = MeasureSetup(w, w.runtime, kWorkers, kSetupReps);
  PassOptions o;
  o.runtime = w.runtime;
  o.workers = kWorkers;
  o.closed_s = seconds * 0.5;
  o.open_s = seconds * 0.5;
  PassResult p = RunPass(w, o);
  out.Add(p);
  out.tracer_stayed_off = !aurora::Tracer::Global().enabled();
  const double failed_frac =
      Div(static_cast<double>(out.failed()), static_cast<double>(out.attempted));
  size_t pooled50 = 0, pooled99 = 0;
  out.metrics = {
      {"throughput_tps", p.tps, "1/s"},
      {"latency_p50_us", QuietPercentile(p.latency_windows, 50, &pooled50), "us"},
      {"latency_p99_us", QuietPercentile(p.latency_windows, 99, &pooled99), "us"},
      {"setup_s", setup_s, "s"},
      {"rss_peak_mb", PeakRssMb(), "MB"},
      {"success_frac", 1.0 - failed_frac, "ratio"},
  };
  out.notes.push_back("saturated: " + std::to_string(p.closed_inputs) +
                      " inputs in " + std::to_string(p.round_tps.size()) +
                      " rounds, " + Num(p.closed_s) + " s busy; round rate "
                      "p10 / p50 / p90 " + Num(Percentile(p.round_tps, 10)) +
                      " / " + Num(Percentile(p.round_tps, 50)) + " / " +
                      Num(p.tps) + " 1/s");
  std::vector<double> all;
  for (const auto& win : p.latency_windows) all.insert(all.end(), win.begin(), win.end());
  out.notes.push_back("open loop: " + std::to_string(p.open_inputs) +
                      " inputs at " + Num(w.open_rate) + "/s; " +
                      std::to_string(all.size()) + " latency samples in " +
                      std::to_string(p.latency_windows.size()) +
                      " windows, all of them p50 " + Num(Percentile(all, 50)) +
                      " us, p99 " + Num(Percentile(all, 99)) + " us; quietest "
                      "quarter pooled " + std::to_string(pooled50) + " samples for "
                      "p50, " + std::to_string(pooled99) + " for p99 (" +
                      std::to_string(pooled99 / 100) + " beyond it)");
  out.notes.push_back("generator lag " + LagTrend(p.gen_lag_us));
  out.notes.push_back("failed_frac " + Num(failed_frac) + " (refused " +
                      std::to_string(out.refused) + ", undelivered " +
                      std::to_string(out.tally.missing) + ")");
  return out;
}

// ---- --trace 1 ----------------------------------------------------------------

Outcome Traced(const Workload& w, double seconds) {
  Outcome out;
  Spans& spans = Spans::Get();
  auto pass_of = [&](const Workload& wl, Runtime rt, int workers, double closed,
                     double open, bool traced, int run) {
    PassOptions o;
    o.runtime = rt;
    o.workers = workers;
    o.closed_s = closed;
    o.open_s = open;
    o.traced = traced;
    o.run = run;
    PassResult p = RunPass(wl, o);
    out.Add(p);
    return p;
  };
  auto pass = [&](Runtime rt, int workers, double closed, double open,
                  bool traced, int run) {
    return pass_of(w, rt, workers, closed, open, traced, run);
  };
  // Span run ids: a pass's closed parts record at an even id, its open
  // parts at id + 1.
  const double slice = 0.1 * seconds;
  const PassResult untraced = pass(w.runtime, kWorkers, 1.5 * slice, 0, false, 0);
  const PassResult own = pass(w.runtime, kWorkers, slice, slice, true, 2);

  // The program's own tracer on, spans off: obs.trace_on_ratio.
  aurora::Tracer& tracer = aurora::Tracer::Global();
  tracer.set_capacity(4096);
  tracer.set_enabled(true);
  const PassResult tracer_on = pass(w.runtime, kWorkers, slice, 0, false, 4);
  tracer.set_enabled(false);
  tracer.Clear();

  // Saturated passes of the same query and inputs through every runtime,
  // so each layer is priced on this workload's tuples.
  const int aurora_run = 6, threaded_run = 8, w1_run = 10, fed_run = 12,
            storage_run = 14;
  const PassResult aur = pass(Runtime::kAurora, kWorkers, slice, 0, true, aurora_run);
  const PassResult thr = pass(Runtime::kThreaded, kWorkers, slice, 0, true, threaded_run);
  const PassResult w1 = pass(Runtime::kThreaded, 1, slice, 0, true, w1_run);
  const PassResult fed = pass(Runtime::kFederation, kWorkers, slice, 0, true, fed_run);
  // The storage layer: a workload without a memory budget gets the
  // AuroraEngine pass again under one far below a pushed block's queued
  // bytes, with a TieredStore attached, so every round spills and reads
  // back through the store.
  Workload budgeted = w;
  if (budgeted.memory_budget_bytes == 0) {
    budgeted.memory_budget_bytes = kProbeBudgetBytes;
    budgeted.store_cache_bytes = kProbeStoreCacheBytes;
  }
  const PassResult sto = pass_of(budgeted, Runtime::kAurora, kWorkers, slice, 0,
                                 true, storage_run);

  spans.set_enabled(true);
  spans.set_run(20);
  const ProbeResult probe = RunProbes(w, 0.5 * slice);
  spans.set_enabled(false);

  double pass_self = 0, pass_total = 0;
  for (int run : {2, 3, aurora_run, threaded_run, w1_run, fed_run, storage_run}) {
    pass_self += spans.SelfNs("pass", run);
    pass_total += spans.TotalNs("pass", run);
  }
  auto per = [](double total, uint64_t n) {
    return Div(total, static_cast<double>(n));
  };
  const double step_ns = per(spans.TotalNs("engine.step", aurora_run), aur.closed_inputs);
  auto op = [&](const char* kind) {
    auto it = probe.op_ns_per_tuple.find(kind);
    return it == probe.op_ns_per_tuple.end() ? 0.0 : it->second;
  };
  const double w_threads = static_cast<double>(kWorkers + 1);
  out.metrics = {
      {"driver.gen_lag_p99_us", Percentile(own.gen_lag_us, 99), "us"},
      {"driver.unattributed_frac", Div(pass_self, pass_total), "ratio"},
      {"driver.trace_overhead_frac", 1.0 - Div(own.tps, untraced.tps), "ratio"},
      {"driver.latency_samples", static_cast<double>(SampleCount(own)), "count"},
      {"engine.push_ns_per_tuple",
       per(spans.TotalNs("engine.push", aurora_run), aur.closed_inputs), "ns"},
      {"engine.step_ns_per_tuple", step_ns, "ns"},
      {"engine.overhead_ns_per_tuple", step_ns - probe.chain_ns_per_input, "ns"},
      {"engine.tuples_per_activation",
       Div(static_cast<double>(aur.box_tuples), static_cast<double>(aur.activations)),
       "count"},
      {"engine.backlog_peak_tuples", static_cast<double>(aur.backlog_peak), "count"},
      {"storage.spill_events", static_cast<double>(sto.spill_events), "count"},
      {"storage.spilled_bytes_per_tuple",
       per(static_cast<double>(sto.spilled_bytes), sto.closed_inputs), "B"},
      {"ops.filter.ns_per_tuple", op("filter"), "ns"},
      {"ops.map.ns_per_tuple", op("map"), "ns"},
      {"ops.tumble.ns_per_tuple", op("tumble"), "ns"},
      {"ops.union.ns_per_tuple", op("union"), "ns"},
      {"ops.chain_ns_per_input_tuple", probe.chain_ns_per_input, "ns"},
      {"serde.encode_ns_per_tuple", probe.encode_ns_per_tuple, "ns"},
      {"serde.decode_ns_per_tuple", probe.decode_ns_per_tuple, "ns"},
      {"serde.bytes_per_tuple", probe.bytes_per_tuple, "B"},
      {"net.wire_bytes_per_tuple",
       per(static_cast<double>(fed.wire_bytes), fed.closed_inputs), "B"},
      {"net.tuples_per_frame",
       Div(static_cast<double>(fed.tuples_sent), static_cast<double>(fed.frames)),
       "count"},
      {"net.overhead_frac",
       Div(static_cast<double>(fed.overhead_bytes), static_cast<double>(fed.wire_bytes)),
       "ratio"},
      {"net.credit_stalls", static_cast<double>(fed.credit_stalls), "count"},
      {"sim.ns_per_event", per(spans.SelfNs("sim.run", fed_run), fed.sim_events), "ns"},
      {"sim.events_per_tuple",
       per(static_cast<double>(fed.sim_events), fed.closed_inputs), "count"},
      {"node.inject_ns_per_tuple",
       per(spans.TotalNs("node.inject", fed_run), spans.Count("node.inject", fed_run)),
       "ns"},
      {"threaded.push_ns_per_tuple",
       per(spans.TotalNs("threaded.push", threaded_run), thr.closed_inputs), "ns"},
      {"threaded.quiesce_ns",
       per(spans.TotalNs("threaded.quiesce", threaded_run),
           spans.Count("threaded.quiesce", threaded_run)),
       "ns"},
      {"threaded.ring_full_per_ktuple",
       per(1000.0 * static_cast<double>(thr.ring_full), thr.closed_inputs), "count"},
      {"threaded.steals_per_ktuple",
       per(1000.0 * static_cast<double>(thr.steals), thr.closed_inputs), "count"},
      {"threaded.tuples_per_activation",
       Div(static_cast<double>(thr.box_tuples), static_cast<double>(thr.activations)),
       "count"},
      {"threaded.cpu_util", Div(thr.cpu_s, thr.cpu_wall_s * w_threads), "ratio"},
      {"threaded.w1_tps", w1.tps, "1/s"},
      {"threaded.scaling", Div(thr.tps, w1.tps), "ratio"},
      {"obs.trace_on_ratio", Div(tracer_on.tps, untraced.tps), "ratio"},
  };
  out.tracer_stayed_off = !tracer.enabled();
  out.notes.push_back("untraced " + Num(untraced.tps) + " t/s, traced " +
                      Num(own.tps) + " t/s, program tracer on " +
                      Num(tracer_on.tps) + " t/s");
  out.notes.push_back("threaded " + std::to_string(kWorkers) + " workers " +
                      Num(thr.tps) + " t/s, 1 worker " + Num(w1.tps) + " t/s");
  out.notes.push_back("federation " + Num(fed.tps) + " t/s over " +
                      std::to_string(fed.frames) + " frames");
  return out;
}

// ---- --selftest -----------------------------------------------------------------

/// Shows the gate passes clean runs and catches damaged ones.
int SelfTest(const Args& a) {
  int failures = 0;
  std::vector<std::string> names =
      a.workload.empty() ? WorkloadNames() : std::vector<std::string>{a.workload};
  for (const std::string& name : names) {
    Workload w;
    if (!MakeWorkload(name, a.seed, &w)) {
      std::cerr << "unknown workload " << name << "\n";
      return 2;
    }
    auto run = [&](OutputFault fault, size_t port) {
      PassOptions o;
      o.runtime = w.runtime;
      o.workers = kWorkers;
      o.closed_s = 0.2;
      o.open_s = fault == OutputFault::kNone ? 0.2 : 0;
      o.fault = fault;
      o.fault_port = port;
      return RunPass(w, o);
    };
    auto report = [&](const std::string& what, bool ok, const PassResult& p) {
      std::cout << "selftest " << name << " seed " << a.seed << " " << what
                << ": " << (ok ? "ok" : "FAILED") << " (matched "
                << p.tally.matched << ", missing " << p.tally.missing
                << ", mismatched " << p.tally.mismatched << ")\n";
      failures += ok ? 0 : 1;
    };
    const PassResult clean = run(OutputFault::kNone, 0);
    report("clean run passes the gate",
           clean.tally.mismatched == 0 && clean.tally.missing == 0 &&
               clean.refused_inputs.empty() && clean.tally.matched > 0,
           clean);
    for (size_t port = 0; port < w.outputs.size(); ++port) {
      // One port of each comparison mode is enough.
      if (port > 0 && w.checks[port] == w.checks[port - 1]) continue;
      const std::string where = " on " + w.outputs[port];
      const PassResult corrupt = run(OutputFault::kCorrupt, port);
      report("corrupted row caught" + where, corrupt.tally.mismatched > 0, corrupt);
      const PassResult drop = run(OutputFault::kDrop, port);
      report("dropped row caught" + where, drop.tally.missing > 0, drop);
      if (w.checks[port] == PortCheck::kSequence) {
        const PassResult swap = run(OutputFault::kSwap, port);
        report("reordered rows caught" + where, swap.tally.mismatched > 0, swap);
      }
    }
  }
  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args a;
  if (!ParseArgs(argc, argv, &a)) return 2;
  // End-to-end numbers are measured with the program's tracer off,
  // whatever AURORA_TRACE* says; both modes assert it stayed off.
  aurora::Tracer::Global().set_enabled(false);
  if (a.selftest) return SelfTest(a);

  Workload w;
  if (!MakeWorkload(a.workload, a.seed, &w)) {
    std::cerr << "unknown workload '" << a.workload << "'\n";
    return 2;
  }
  Outcome out = a.trace ? Traced(w, a.seconds) : EndToEnd(w, a.seconds);

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::ostringstream facts;
  facts << "\"workload\": \"" << w.name << "\", \"runtime\": \""
        << RuntimeName(w.runtime) << "\", \"seed\": " << a.seed
        << ", \"seconds\": " << Num(a.seconds) << ", \"trace\": " << a.trace
        << ", \"nproc\": " << nproc << ", \"compiler\": \"" << PERFBENCH_COMPILER
        << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE << "\"";
  for (const std::string& note : out.notes) std::cout << "# " << note << "\n";
  std::cout << "# host: " << facts.str() << "\n";
  if (!out.tally.first_error.empty()) {
    std::cout << "# first mismatch: " << out.tally.first_error << "\n";
  }
  if (!out.tracer_stayed_off) std::cout << "# program tracer was on\n";

  const std::string stem = a.out_dir + "/" + w.name + "-seed" +
                           std::to_string(a.seed) + "-trace" +
                           std::to_string(a.trace);
  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  if (!ec) {
    std::ofstream file(stem + ".json");
    file << "{" << facts.str() << ", \"correct\": "
         << (out.correct() ? "true" : "false") << ", \"matched\": "
         << out.tally.matched << ", \"mismatched\": " << out.tally.mismatched
         << ", \"missing\": " << out.tally.missing << ", \"refused\": "
         << out.refused << ", \"metrics\": " << MetricsJson(out.metrics)
         << "}\n";
    if (a.trace) Spans::Get().WriteCsv(stem + ".spans.csv");
  }

  std::cout << "{\"correct\": " << (out.correct() ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed()
            << ", \"metrics\": " << MetricsJson(out.metrics) << "}" << std::endl;
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
