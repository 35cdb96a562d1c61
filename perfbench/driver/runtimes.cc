#include "runtimes.h"

#include <sys/resource.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include "common/logging.h"
#include "distributed/aurora_star.h"
#include "distributed/deployment.h"
#include "engine/aurora_engine.h"
#include "engine/threaded_engine.h"
#include "net/overlay_network.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "storage/storage_fs.h"
#include "storage/tiered_store.h"

namespace perfbench {

using aurora::AuroraEngine;
using aurora::BoxId;
using aurora::Endpoint;
using aurora::GlobalQuery;
using aurora::PortId;
using aurora::SimDuration;
using aurora::SimTime;
using aurora::ThreadedEngine;

namespace {

void Check(const aurora::Status& st) { AURORA_CHECK(st.ok()) << st.ToString(); }

/// Builds the workload's query on either engine (both expose the same
/// topology API), registers the output logs, and initializes the boxes.
template <class Engine>
std::vector<PortId> BuildQuery(Engine* engine, const Workload& w,
                               Checker* checker) {
  const GlobalQuery& q = w.query;
  std::vector<PortId> inputs;
  std::map<std::string, PortId> input_ids;
  for (const auto& in : q.inputs()) {
    auto port = engine->AddInput(in.name, in.schema);
    Check(port.status());
    inputs.push_back(*port);
    input_ids[in.name] = *port;
  }
  std::map<std::string, BoxId> boxes;
  for (const auto& box : q.boxes()) {
    auto id = engine->AddBox(box.spec);
    Check(id.status());
    boxes[box.name] = *id;
  }
  std::map<std::string, PortId> outputs;
  for (size_t p = 0; p < w.outputs.size(); ++p) {
    auto port = engine->AddOutput(w.outputs[p]);
    Check(port.status());
    outputs[w.outputs[p]] = *port;
    OutputLog* log = &checker->log(p);
    engine->SetOutputCallback(
        *port, [log](const Tuple& t, SimTime) { log->Record(t); });
  }
  using Arc = GlobalQuery::ArcDef;
  for (const Arc& a : q.arcs()) {
    Endpoint from = a.from_kind == Arc::FromKind::kInput
                        ? Endpoint::InputPort(input_ids.at(a.from))
                        : Endpoint::BoxPort(boxes.at(a.from), a.from_index);
    Endpoint to = a.to_kind == Arc::ToKind::kBox
                      ? Endpoint::BoxPort(boxes.at(a.to), a.to_index)
                      : Endpoint::OutputPort(outputs.at(a.to));
    Check(engine->Connect(from, to).status());
  }
  Check(engine->InitializeBoxes());
  return inputs;
}

aurora::EngineOptions AuroraOptions(const Workload& w) {
  aurora::EngineOptions opts;
  opts.batch_size = w.batch_size;
  opts.memory_budget_bytes = w.memory_budget_bytes;
  return opts;
}

struct AuroraRt {
  // The store outlives the engine that holds a pointer to it.
  std::unique_ptr<aurora::MemStorageFs> fs;
  std::unique_ptr<aurora::TieredStore> store;
  AuroraEngine engine;
  std::vector<PortId> inputs;

  AuroraRt(const Workload& w, Checker* checker) : engine(AuroraOptions(w)) {
    inputs = BuildQuery(&engine, w, checker);
    if (w.store_cache_bytes > 0) {
      fs = std::make_unique<aurora::MemStorageFs>();
      aurora::TieredStoreOptions opts;
      opts.mem_budget_bytes = w.store_cache_bytes;
      store = std::make_unique<aurora::TieredStore>(fs.get(), opts);
      Check(store->Open());
      engine.AttachDurableStore(store.get());
    }
  }
};

struct ThreadedRt {
  ThreadedEngine engine;
  std::vector<PortId> inputs;

  ThreadedRt(const Workload& w, int workers, Checker* checker)
      : engine([&] {
          aurora::ThreadedEngineOptions opts;
          opts.workers = workers;
          opts.batch_size = w.batch_size;
          return opts;
        }()) {
    inputs = BuildQuery(&engine, w, checker);
    Check(engine.Start());
  }
};

struct FederationRt {
  aurora::Simulation sim;
  aurora::OverlayNetwork net{&sim};
  aurora::AuroraStarSystem system;
  aurora::DeployedQuery deployed;
  /// Per workload input: (node, engine input name).
  std::vector<std::pair<aurora::NodeId, std::string>> inputs;

  FederationRt(const Workload& w, Checker* checker)
      : system(&sim, &net, [&] {
          aurora::StarOptions opts;
          opts.engine = AuroraOptions(w);
          opts.transport.train_size = static_cast<size_t>(kTrainSize);
          opts.transport.credit_window_bytes = kCreditWindowBytes;
          return opts;
        }()) {
    for (int n = 0; n < 2; ++n) {
      aurora::NodeOptions node;
      node.name = "n" + std::to_string(n);
      Check(system.AddNode(node).status());
    }
    Check(net.AddLink(0, 1, aurora::LinkOptions{}));
    std::map<std::string, aurora::NodeId> placement(w.placement.begin(),
                                                    w.placement.end());
    auto dq = aurora::DeployQuery(&system, w.query, placement);
    Check(dq.status());
    deployed = std::move(*dq);
    for (const std::string& in : w.inputs) inputs.push_back(deployed.inputs.at(in));
    for (size_t p = 0; p < w.outputs.size(); ++p) {
      const auto& where = deployed.outputs.at(w.outputs[p]);
      OutputLog* log = &checker->log(p);
      Check(system.CollectOutput(where.first, where.second,
                                 [log](const Tuple& t, SimTime) {
                                   log->Record(t);
                                 }));
    }
  }

  bool EnginesIdle() {
    for (size_t n = 0; n < system.num_nodes(); ++n) {
      if (system.node(static_cast<aurora::NodeId>(n)).engine().HasWork()) {
        return false;
      }
    }
    return true;
  }
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

/// Feeds the accepted inputs of [from, to) to the reference model.
using FeedFn = std::function<void(int64_t from, int64_t to)>;

/// One deployed runtime, driven by RunPass through the same five calls.
class Runner {
 public:
  virtual ~Runner() = default;
  /// Closed loop: offers inputs [first, first + n) back to back, feeds them
  /// to the reference once their acceptance is known, and returns the wall
  /// ns the program spent (feeding excluded). AuroraEngine and the
  /// federation process the round to quiescence; the threaded runtime
  /// returns once pushed (help-on-full paces the pusher).
  virtual int64_t Round(int64_t first, int n, SimTime now, const FeedFn& feed) = 0;
  virtual bool RoundDrains() const { return true; }
  /// Open loop: offers one due input.
  virtual void Offer(int64_t i, SimTime now) = 0;
  /// Open loop: processes what the offers queued.
  virtual void Process(SimTime now) = 0;
  /// Waits until everything offered is processed.
  virtual void Drain(SimTime now) = 0;
  /// Records layer facts of the closed phases.
  virtual void Finish(PassResult* r) = 0;

  PassResult* result = nullptr;
};

template <class Engine>
void Push(Engine& e, const std::vector<PortId>& ports, const Workload& w,
          int64_t i, SimTime ts, PassResult* r) {
  Tuple t = w.input(i);
  t.set_timestamp(ts);
  ++r->attempted;
  if (!e.PushInput(ports[w.input_port(i)], std::move(t), ts).ok()) {
    r->refused_inputs.push_back(i);
  }
}

class AuroraRunner : public Runner {
 public:
  AuroraRunner(const Workload& w, Checker* checker) : w_(w), rt_(w, checker) {}

  int64_t Round(int64_t first, int n, SimTime now, const FeedFn& feed) override {
    const int64_t t0 = NowNs();
    {
      Span span("engine.push");
      for (int j = 0; j < n; ++j) Push(rt_.engine, rt_.inputs, w_, first + j, now, result);
    }
    result->backlog_peak =
        std::max<uint64_t>(result->backlog_peak, rt_.engine.TotalQueuedTuples());
    {
      Span span("engine.step");
      Run(now);
    }
    const int64_t busy = NowNs() - t0;
    feed(first, first + n);
    return busy;
  }
  void Offer(int64_t i, SimTime now) override {
    Span span("engine.push");
    Push(rt_.engine, rt_.inputs, w_, i, now, result);
  }
  void Process(SimTime now) override {
    Span span("engine.step");
    Run(now);
  }
  void Drain(SimTime now) override { Process(now); }
  void Finish(PassResult* r) override {
    r->activations = rt_.engine.total_activations();
    r->spill_events = rt_.engine.storage_manager().spill_events();
    r->spilled_bytes = rt_.engine.storage_manager().total_spilled_bytes();
  }

 private:
  void Run(SimTime now) {
    Check(rt_.engine.RunUntilQuiescent(now));
    // The store's dropper (group sync, compaction of consumed spill
    // records) runs on engine ticks.
    if (w_.store_cache_bytes > 0) rt_.engine.Tick(now);
  }

  const Workload& w_;
  AuroraRt rt_;
};

class ThreadedRunner : public Runner {
 public:
  ThreadedRunner(const Workload& w, int workers, Checker* checker)
      : w_(w), rt_(w, workers, checker) {}

  int64_t Round(int64_t first, int n, SimTime now, const FeedFn& feed) override {
    const int64_t t0 = NowNs();
    {
      Span span("threaded.push");
      for (int j = 0; j < n; ++j) Push(rt_.engine, rt_.inputs, w_, first + j, now, result);
    }
    const int64_t busy = NowNs() - t0;
    feed(first, first + n);
    return busy;
  }
  bool RoundDrains() const override { return false; }
  void Offer(int64_t i, SimTime now) override {
    Span span("threaded.push");
    Push(rt_.engine, rt_.inputs, w_, i, now, result);
  }
  void Process(SimTime) override {}
  void Drain(SimTime) override {
    Span span("threaded.quiesce");
    rt_.engine.WaitQuiescent();
  }
  void Finish(PassResult* r) override {
    r->activations = rt_.engine.activations();
    r->steals = rt_.engine.steals();
    r->ring_full = rt_.engine.ring_full_events();
    Check(rt_.engine.Stop());
  }

 private:
  const Workload& w_;
  ThreadedRt rt_;
};

/// Virtual time the open loop lets pass after each offer: longer than a
/// tuple's trip (train flush deadline + link latency + node steps), so an
/// input's outputs are out before the next input is due.
constexpr int64_t kOpenVirtualGapMicros = 20'000;
/// Slice and bound of a federation drain, in virtual time.
constexpr int64_t kDrainSliceMicros = 1'000;
constexpr int64_t kDrainBoundMicros = 10'000'000;

class FederationRunner : public Runner {
 public:
  FederationRunner(const Workload& w, Checker* checker)
      : w_(w), checker_(checker), rt_(w, checker) {}

  int64_t Round(int64_t first, int n, SimTime, const FeedFn& feed) override {
    const int64_t gap_us = static_cast<int64_t>(1e6 / w_.sim_rate);
    const SimTime base = rt_.sim.Now();
    const SimTime injected = base + SimDuration::Micros(gap_us * n);
    const uint64_t events = rt_.sim.events_executed();
    int64_t t0 = NowNs();
    {
      Span span("sim.schedule");
      for (int j = 0; j < n; ++j) {
        rt_.sim.ScheduleAt(base + SimDuration::Micros(gap_us * (j + 1)),
                           [this, i = first + j] { Inject(i); });
      }
    }
    {
      Span span("sim.run");
      rt_.sim.RunUntil(injected);
    }
    int64_t busy = NowNs() - t0;
    // Every inject has run: the reference learns which were accepted and
    // how many outputs the round owes.
    feed(first, first + n);
    t0 = NowNs();
    {
      Span span("sim.run");
      RunUntilDelivered(injected);
    }
    busy += NowNs() - t0;
    sim_events_ += rt_.sim.events_executed() - events;
    return busy;
  }
  void Offer(int64_t i, SimTime) override { Inject(i); }
  void Process(SimTime) override {
    Span span("sim.run");
    rt_.sim.RunFor(SimDuration::Micros(kOpenVirtualGapMicros));
  }
  void Drain(SimTime) override {
    Span span("sim.run");
    RunUntilDelivered(rt_.sim.Now());
  }
  void Finish(PassResult* r) override {
    const aurora::Transport* tr = rt_.system.node(0).PeerTransport(1);
    if (tr != nullptr) {
      r->wire_bytes = tr->total_wire_bytes();
      r->overhead_bytes = tr->overhead_bytes();
      r->frames = tr->frames_sent();
      r->credit_stalls = tr->credit_stalls();
    }
    r->tuples_sent =
        aurora::MetricsRegistry::Global().CounterValue("node.tuples_sent");
    r->sim_events = sim_events_;
    for (size_t n = 0; n < rt_.system.num_nodes(); ++n) {
      r->activations += rt_.system.node(static_cast<aurora::NodeId>(n))
                            .engine()
                            .total_activations();
    }
  }

 private:
  void Inject(int64_t i) {
    Span span("node.inject");
    const auto& [node, input] = rt_.inputs[w_.input_port(i)];
    ++result->attempted;
    if (!rt_.system.node(node).Inject(input, w_.input(i)).ok()) {
      result->refused_inputs.push_back(i);
    }
  }

  /// Runs the simulation until every output the reference expects so far
  /// is delivered and both engines are idle (bounded in virtual time).
  void RunUntilDelivered(SimTime from) {
    const size_t expected = checker_->pending_expected();
    auto delivered = [&] {
      size_t n = 0;
      for (size_t p = 0; p < checker_->ports(); ++p) n += checker_->log(p).size();
      return n;
    };
    rt_.sim.RunUntilIdle(
        from + SimDuration::Micros(kDrainBoundMicros),
        SimDuration::Micros(kDrainSliceMicros),
        [&] { return delivered() >= expected && rt_.EnginesIdle(); });
  }

  const Workload& w_;
  Checker* checker_;
  FederationRt rt_;
  uint64_t sim_events_ = 0;
};

std::unique_ptr<Runner> MakeRunner(const Workload& w, Runtime r, int workers,
                                   Checker* checker) {
  switch (r) {
    case Runtime::kAurora:
      return std::make_unique<AuroraRunner>(w, checker);
    case Runtime::kThreaded:
      return std::make_unique<ThreadedRunner>(w, workers, checker);
    case Runtime::kFederation:
      break;
  }
  aurora::MetricsRegistry::Global().Reset();  // node.tuples_sent from zero
  return std::make_unique<FederationRunner>(w, checker);
}

/// Open-loop latency percentiles are taken per window of this much of the
/// schedule. Short windows keep the host's occasional millisecond-long
/// deschedules of a thread inside few windows.
constexpr double kLatencyWindowSeconds = 0.1;

/// Wall length of one closed part plus one open part. Interleaving the two
/// phases in short segments exposes both to the same stretch of host load.
constexpr double kSegmentSeconds = 1.0;

SimTime WallMicros(int64_t since_ns) {
  return SimTime::Micros((NowNs() - since_ns) / 1000);
}

/// Saturated part: back-to-back rounds until `seconds` pass.
void ClosedPart(const Workload& w, double seconds, int64_t start_ns,
                Runner* runner, Checker* checker, int64_t* next,
                PassResult* r) {
  const int64_t part_start = NowNs();
  const int64_t deadline = part_start + static_cast<int64_t>(seconds * 1e9);
  const double cpu0 = CpuSeconds();
  const int64_t part_first = *next;
  const FeedFn feed = [&](int64_t from, int64_t to) {
    Span span("driver.check");
    checker->Feed(from, to, r->refused_inputs);
  };
  int64_t part_busy_ns = 0;
  do {
    const int64_t round_ns = runner->Round(*next, w.block, WallMicros(start_ns), feed);
    part_busy_ns += round_ns;
    *next += w.block;
    r->closed_inputs += static_cast<uint64_t>(w.block);
    if (runner->RoundDrains()) {
      r->round_tps.push_back(w.block * 1e9 / static_cast<double>(round_ns));
      Span span("driver.check");
      checker->Compare();
    }
  } while (NowNs() < deadline);
  if (!runner->RoundDrains()) {
    // The threaded runtime's rate is the whole part's: pushes run ahead of
    // processing until the rings fill, so a block's push time is not it.
    const int64_t t0 = NowNs();
    runner->Drain(WallMicros(start_ns));
    part_busy_ns += NowNs() - t0;
    r->round_tps.push_back(static_cast<double>(*next - part_first) * 1e9 /
                           static_cast<double>(part_busy_ns));
    Span span("driver.check");
    checker->Compare();
  }
  r->closed_s += static_cast<double>(part_busy_ns) / 1e9;
  r->cpu_s += CpuSeconds() - cpu0;
  r->cpu_wall_s += static_cast<double>(NowNs() - part_start) / 1e9;
}

/// Open-loop part: input k of the part is due at t0 + k / rate; every
/// matched output's latency runs from its closing input's due time.
void OpenPart(const Workload& w, double seconds, int64_t start_ns,
              Runner* runner, Checker* checker, int64_t* next,
              PassResult* r) {
  const double period = 1e9 / w.open_rate;
  const int64_t n = std::max<int64_t>(1, static_cast<int64_t>(seconds * w.open_rate));
  const int64_t first = *next;
  StealLog& steal = StealLog::Driver();
  steal.Clear();
  checker->SetStamp(true);
  const int64_t t0 = NowNs() + 100'000;  // first input due 0.1 ms from now
  auto due = [&](int64_t k) {
    return t0 + static_cast<int64_t>(static_cast<double>(k) * period);
  };
  int64_t k = 0;
  while (k < n) {
    const int64_t now = NowNs();
    steal.Mark(now);
    if (now < due(k)) {
      Span span("driver.wait");
      SpinUntil(due(k));
      continue;
    }
    for (; k < n && due(k) <= now; ++k) {
      r->gen_lag_us.push_back(static_cast<double>(now - due(k)) / 1e3);
      runner->Offer(first + k, WallMicros(start_ns));
    }
    runner->Process(WallMicros(start_ns));
  }
  {
    Span span("driver.check");
    checker->Feed(first, first + n, r->refused_inputs);
  }
  runner->Drain(WallMicros(start_ns));
  checker->SetStamp(false);
  *next += n;
  r->open_inputs += static_cast<uint64_t>(n);
  Span span("driver.check");
  std::vector<LatencySample> samples;
  checker->Compare(t0 - static_cast<int64_t>(static_cast<double>(first) * period),
                   period, &samples);
  // Windows of kLatencyWindowSeconds of the schedule, by closing input.
  const int64_t per_window = std::max<int64_t>(
      1, static_cast<int64_t>(kLatencyWindowSeconds * w.open_rate));
  const size_t base = r->latency_windows.size();
  r->latency_windows.resize(base + static_cast<size_t>((n + per_window - 1) / per_window));
  for (const LatencySample& s : samples) {
    r->latency_windows[base + static_cast<size_t>((s.source - first) / per_window)]
        .push_back(s.us);
  }
}

}  // namespace

PassResult RunPass(const Workload& w, const PassOptions& o) {
  PassResult r;
  Spans& spans = Spans::Get();
  spans.set_enabled(o.traced);
  spans.set_run(o.run);
  Checker checker(w);
  checker.SetFault(o.fault, o.fault_port);
  std::unique_ptr<Runner> runner;
  {
    Span pass("pass");
    Span span("driver.setup");
    runner = MakeRunner(w, o.runtime, o.workers, &checker);
    runner->result = &r;
  }
  const int64_t start = NowNs();
  const int segments = std::max(
      1, static_cast<int>(std::lround((o.closed_s + o.open_s) / kSegmentSeconds)));
  int64_t next = 0;
  for (int seg = 0; seg < segments; ++seg) {
    if (o.closed_s > 0) {
      spans.set_run(o.run);
      Span pass("pass");
      ClosedPart(w, o.closed_s / segments, start, runner.get(), &checker, &next, &r);
    }
    if (o.open_s > 0) {
      spans.set_run(o.run + 1);
      Span pass("pass");
      OpenPart(w, o.open_s / segments, start, runner.get(), &checker, &next, &r);
    }
  }
  {
    spans.set_run(o.run);
    Span pass("pass");
    Span span("driver.teardown");
    runner->Finish(&r);
    runner.reset();
  }
  r.box_tuples = checker.box_tuples();
  // Load from outside the program only ever slows a round, so the rate of
  // the least-disturbed rounds is the program's own.
  r.tps = Percentile(r.round_tps, 90);
  r.tally = checker.tally();
  spans.set_enabled(false);
  return r;
}

double MeasureSetup(const Workload& w, Runtime r, int workers, int reps) {
  std::vector<double> seconds;
  for (int k = 0; k < reps; ++k) {
    Checker checker(w);
    const int64_t t0 = NowNs();
    switch (r) {
      case Runtime::kAurora: {
        AuroraRt rt(w, &checker);
        seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
        break;
      }
      case Runtime::kThreaded: {
        ThreadedRt rt(w, workers, &checker);
        seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
        Check(rt.engine.Stop());
        break;
      }
      case Runtime::kFederation: {
        FederationRt rt(w, &checker);
        seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
        break;
      }
    }
  }
  return Percentile(seconds, 50);
}

}  // namespace perfbench
