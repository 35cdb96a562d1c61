// The benchmark's four workloads: each is a query (a GlobalQuery, so every
// runtime can deploy it), an input pool generated from the seed, the
// runtime and knobs its end-to-end run uses, and a plain-C++ reference
// model of its outputs. perfbench/README.md explains why each was chosen.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "distributed/deployment.h"

namespace perfbench {

enum class Runtime { kAurora, kThreaded, kFederation };

/// ThreadedEngine workers; with the driver's generator thread, 4 threads.
constexpr int kWorkers = 3;
/// Transport train size and credit window of the federation runtime; the
/// serde probe encodes trains of the same size.
constexpr int kTrainSize = 32;
constexpr size_t kCreditWindowBytes = 64 * 1024;
const char* RuntimeName(Runtime r);

/// How an output port's stream is compared with the reference.
enum class PortCheck {
  /// Exactly, in order: every single-input path.
  kSequence,
  /// As a multiset, plus each input's subsequence keeps its order: outputs
  /// downstream of a union, whose merge interleaving is the scheduler's.
  kMultiset,
};

/// One expected output row. `source` is the global index of the last input
/// contributing to it (the window-closing tuple of a tumble, the tuple
/// itself on a pass-through path); its due time starts the latency clock.
struct Expected {
  Digest digest;
  int64_t source = 0;
};

/// Plain-C++ model of a workload's query. Never touches an engine: it reads
/// input values and appends the rows each output port must deliver.
class Reference {
 public:
  explicit Reference(size_t outputs) : expected(outputs) {}
  virtual ~Reference() = default;
  /// Consumes global input `index`, which arrives on input port `port`.
  virtual void Feed(int port, const Tuple& t, int64_t index) = 0;

  /// Per output port, rows produced since the caller last cleared them.
  std::vector<std::vector<Expected>> expected;
  /// Tuples consumed by all boxes together (activation sizing).
  uint64_t box_tuples = 0;
};

struct Workload {
  std::string name;
  /// Runtime of the end-to-end run.
  Runtime runtime = Runtime::kAurora;
  aurora::GlobalQuery query;
  std::vector<std::string> inputs;
  std::vector<std::string> outputs;
  std::vector<PortCheck> checks;  // parallel to outputs
  /// Box name -> node for the two-node federation runtime.
  std::map<std::string, int> placement;

  /// Input i is pool[i % pool.size()] on input port pool_port[...].
  std::vector<Tuple> pool;
  std::vector<int> pool_port;

  // ---- Runtime knobs --------------------------------------------------
  int batch_size = 1;
  size_t memory_budget_bytes = 0;
  /// When non-zero, a TieredStore on MemStorageFs is attached (spills
  /// become real bytes) whose memory tier caches this many bytes.
  size_t store_cache_bytes = 0;
  /// Inputs per closed-loop round (push all, then drain).
  int block = 4096;
  /// Open-loop input rate (inputs per wall second), well below saturation.
  double open_rate = 20000;
  /// Federation: inputs per simulated second of the injection schedule.
  double sim_rate = 20000;

  std::function<std::unique_ptr<Reference>()> make_reference;

  const Tuple& input(int64_t i) const {
    return pool[static_cast<size_t>(i) % pool.size()];
  }
  int input_port(int64_t i) const {
    return pool_port[static_cast<size_t>(i) % pool.size()];
  }
};

/// Builds a workload; inputs come only from `seed`. Returns false for an
/// unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);
const std::vector<std::string>& WorkloadNames();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
