// The correctness gate: output logs filled by the runtimes' callbacks and a
// checker that compares them with the workload's reference model.
#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

/// Open-loop latency of one matched output: wall us from the due time of
/// its last contributing input (`source`) to its callback.
struct LatencySample {
  int64_t source = 0;
  double us = 0;
};

struct Observed {
  Digest digest;
  int64_t t_ns = 0;  // wall time of the output callback (0 when unstamped)
  /// The driver's steal log and its stolen time at t_ns, when the driver
  /// thread delivered the output.
  const StealLog* steal = nullptr;
  int64_t stolen_ns = 0;
};

/// Deliberate damage the self-test applies to one output, to show the gate
/// catches it.
enum class OutputFault {
  kNone,
  kCorrupt,  ///< change one field of the row
  kDrop,     ///< lose the row
  kSwap,     ///< deliver the row after its successor
};

/// Outputs of one port. Record() runs inside the engine's output callback,
/// serialized per port, so it only digests and appends.
class OutputLog {
 public:
  void set_stamp(bool stamp) { stamp_ = stamp; }
  /// Damages the `at`-th row this log records.
  void set_fault(OutputFault fault, size_t at) {
    fault_ = fault;
    fault_at_ = at;
  }
  void Record(const Tuple& t) {
    Observed o{DigestTuple(t)};
    if (stamp_) {
      o.t_ns = NowNs();
      StealLog* log = StealLog::OnDriverThread();
      if (log != nullptr) o.stolen_ns = log->Mark(o.t_ns);
      o.steal = log;
    }
    if (fault_ != OutputFault::kNone && seen_++ >= fault_at_) {
      if (!Damage(t, &o)) return;
    }
    got_.push_back(o);
  }
  std::vector<Observed>& got() { return got_; }
  size_t size() const { return got_.size(); }

 private:
  /// Applies the fault; false when the row is withheld.
  bool Damage(const Tuple& t, Observed* o);

  bool stamp_ = false;
  std::vector<Observed> got_;
  OutputFault fault_ = OutputFault::kNone;
  size_t fault_at_ = 0;
  size_t seen_ = 0;
  bool held_ = false;
  Observed hold_;
};

/// Tallies across every comparison of a pass.
struct Tally {
  uint64_t matched = 0;
  /// Expected rows never delivered (they count as failed operations).
  uint64_t missing = 0;
  /// Delivered rows whose content, order or count is wrong.
  uint64_t mismatched = 0;
  std::string first_error;
};

/// Feeds inputs to the reference as they are pushed and, at each quiescent
/// point, compares what every port delivered with what the reference
/// expects, then clears both sides so memory stays bounded.
class Checker {
 public:
  explicit Checker(const Workload& w);

  OutputLog& log(size_t port) { return logs_[port]; }
  size_t ports() const { return logs_.size(); }
  void SetStamp(bool stamp);
  /// Self-test: damages the sixth row delivered on `port`.
  void SetFault(OutputFault fault, size_t port) {
    logs_[port].set_fault(fault, 5);
  }

  /// Feeds global inputs [from, to) to the reference, except those listed
  /// in `refused` (ascending): the program never accepted them.
  void Feed(int64_t from, int64_t to, const std::vector<int64_t>& refused);
  /// Compares and clears. With `latency` (the open-loop schedule: input i
  /// was due at t0_ns + i * period_ns), each matched output's latency from
  /// the due time of its last contributing input is appended.
  void Compare(int64_t t0_ns, double period_ns,
               std::vector<LatencySample>* latency);
  void Compare() { Compare(0, 0, nullptr); }

  /// Expected rows not yet compared, over all ports.
  size_t pending_expected() const {
    size_t n = 0;
    for (const auto& rows : ref_->expected) n += rows.size();
    return n;
  }
  const Tally& tally() const { return tally_; }
  uint64_t box_tuples() const { return ref_->box_tuples; }

 private:
  void Mismatch(const std::string& what);

  const Workload& w_;
  std::unique_ptr<Reference> ref_;
  std::vector<OutputLog> logs_;
  Tally tally_;
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
