// Engine-free probes: the workload's operators driven directly through
// Operator::Process/ProcessBatch with a collecting emitter, and the tuple
// serde at the transport's train size. They price the operator and serde
// layers on their own, so the engine's share of a tuple's cost is the
// engine's step time minus the operator chain's.
#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

struct ProbeResult {
  /// Operator kind -> wall ns per tuple into operators of that kind.
  std::map<std::string, double> op_ns_per_tuple;
  /// Wall ns of the whole operator network per workload input tuple.
  double chain_ns_per_input = 0;
  double encode_ns_per_tuple = 0;
  double decode_ns_per_tuple = 0;
  double bytes_per_tuple = 0;
};

/// Runs both probes over the workload's input pool for about `seconds`.
ProbeResult RunProbes(const Workload& w, double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
