// Runs a workload on one of the three runtimes through their public API:
// AuroraEngine (single thread), ThreadedEngine (worker pool), and a
// two-node AuroraStarSystem federation on the simulated overlay.
#ifndef PERFBENCH_RUNTIMES_H_
#define PERFBENCH_RUNTIMES_H_

#include <cstdint>
#include <vector>

#include "check.h"
#include "workloads.h"

namespace perfbench {

struct PassOptions {
  Runtime runtime = Runtime::kAurora;
  /// ThreadedEngine worker threads.
  int workers = kWorkers;
  /// Wall seconds of saturated closed-loop and of open-loop load (at
  /// Workload::open_rate). The two alternate in one-second segments.
  double closed_s = 0;
  double open_s = 0;
  /// Record spans (the traced run); span run ids are `run` for closed parts
  /// and `run + 1` for open parts.
  bool traced = false;
  int run = 0;
  /// Self-test: damage one output of `fault_port` before the checker sees it.
  OutputFault fault = OutputFault::kNone;
  size_t fault_port = 0;
};

struct PassResult {
  Tally tally;
  /// PushInput/Inject calls made, and the inputs they refused (ascending).
  uint64_t attempted = 0;
  std::vector<int64_t> refused_inputs;

  // ---- Saturated phase ----------------------------------------------------
  uint64_t closed_inputs = 0;
  /// Wall seconds inside measured rounds (excludes reference checking).
  double closed_s = 0;
  /// Process CPU seconds (all threads) and wall seconds of the closed
  /// parts, reference checking included in both.
  double cpu_s = 0;
  double cpu_wall_s = 0;
  /// Inputs per wall second of each round (AuroraEngine, federation) or
  /// each closed part (ThreadedEngine), and their 90th percentile.
  std::vector<double> round_tps;
  double tps = 0;
  /// Tuples consumed by boxes, per the reference (activation sizing).
  uint64_t box_tuples = 0;
  uint64_t activations = 0;
  /// AuroraEngine: most tuples queued on arcs right after a push round.
  uint64_t backlog_peak = 0;
  uint64_t spill_events = 0;
  uint64_t spilled_bytes = 0;
  // ThreadedEngine.
  uint64_t steals = 0;
  uint64_t ring_full = 0;
  // Federation.
  uint64_t wire_bytes = 0;
  uint64_t overhead_bytes = 0;
  uint64_t frames = 0;
  uint64_t tuples_sent = 0;
  uint64_t credit_stalls = 0;
  uint64_t sim_events = 0;

  // ---- Open-loop phase ----------------------------------------------------
  uint64_t open_inputs = 0;
  /// Per open-loop window, the latency in wall us of each matched output,
  /// from its closing input's due time to its callback.
  std::vector<std::vector<double>> latency_windows;
  /// Per input: how late the generator offered it.
  std::vector<double> gen_lag_us;
};

PassResult RunPass(const Workload& w, const PassOptions& o);

/// Median wall seconds, over `reps` fresh builds, to build the workload's
/// topology on `r`, run InitializeBoxes, and Start (threaded) or deploy
/// (federation).
double MeasureSetup(const Workload& w, Runtime r, int workers, int reps);

}  // namespace perfbench

#endif  // PERFBENCH_RUNTIMES_H_
