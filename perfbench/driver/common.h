// Shared pieces of the benchmark driver: the wall clock, output digests,
// percentile helpers, and the in-memory span recorder of the traced run.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "tuple/tuple.h"

namespace perfbench {

using aurora::Tuple;
using aurora::Value;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy-waits until `deadline_ns`. Sleeping would let the OS wake the
/// generator tens of microseconds late, which an open-loop latency figure
/// would then charge to the program.
inline void SpinUntil(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Timeline of the driver thread's "stolen" time: wall time minus the
/// thread's CPU time, which grows only while the host or the OS does not
/// run the thread (the driver spins, never sleeps, while it waits). When the
/// driver thread also delivers the outputs (AuroraEngine, federation),
/// open-loop latency subtracts what the thread lost between an input's due
/// time and the output's callback, so a millisecond-long deschedule by a
/// busy host does not pass for program latency. Engine worker threads park
/// when idle, so their stolen time is not measurable this way.
class StealLog {
 public:
  /// The log of the driver thread (the thread that first called Driver()).
  static StealLog& Driver();
  /// The driver's log when called on the driver thread, else nullptr.
  static StealLog* OnDriverThread();

  /// Records the calling thread's stolen time at `wall_ns` and returns it.
  int64_t Mark(int64_t wall_ns) {
    const int64_t stolen = wall_ns - ThreadCpuNs();
    marks_.push_back({wall_ns, stolen});
    return stolen;
  }
  /// Stolen time at the latest mark at or before `wall_ns`.
  int64_t StolenAt(int64_t wall_ns) const;
  void Clear() { marks_.clear(); }

 private:
  struct MarkRec {
    int64_t wall_ns;
    int64_t stolen_ns;
  };
  std::vector<MarkRec> marks_;
};

/// 128-bit content digest of one row: two independent 64-bit hashes over
/// each value's type tag and bytes. Rows compare by digest, so an output
/// that differs from the reference in any field, type or string byte is a
/// mismatch (collisions are 2^-128 events).
struct Digest {
  uint64_t a = 0;
  uint64_t b = 0;
  bool operator==(const Digest& o) const { return a == o.a && b == o.b; }
  bool operator<(const Digest& o) const {
    return a != o.a ? a < o.a : b < o.b;
  }
};

Digest DigestRow(const std::vector<Value>& values);
inline Digest DigestTuple(const Tuple& t) { return DigestRow(t.values()); }

/// Nearest-rank percentile of an unsorted sample (sorts a copy).
double Percentile(std::vector<double> v, double p);

/// One traced interval: {name, start, end, parent, run}. `run` numbers the
/// pass that recorded it; `parent` is the index of the enclosing span or -1.
struct SpanRec {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
  int run = 0;
};

/// In-memory span store. Disabled (the end-to-end runs), Begin/End are a
/// branch each; enabled, spans are kept in memory and written out at exit.
class Spans {
 public:
  static Spans& Get();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  int Begin(const char* name);
  void End(int id);

  /// Sum over spans named `name` recorded in pass `run` of duration minus
  /// the part covered by their direct children.
  double SelfNs(const std::string& name, int run) const;
  double TotalNs(const std::string& name, int run) const;
  size_t Count(const std::string& name, int run) const;
  /// Writes every span as CSV (name,start_ns,end_ns,parent,run).
  bool WriteCsv(const std::string& path) const;

 private:
  bool enabled_ = false;
  int run_ = 0;
  int open_ = -1;
  std::vector<SpanRec> spans_;
};

/// RAII span; a no-op while the recorder is disabled.
class Span {
 public:
  explicit Span(const char* name)
      : id_(Spans::Get().enabled() ? Spans::Get().Begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) Spans::Get().End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
