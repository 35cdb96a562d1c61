#include "workloads.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "common/rng.h"

namespace perfbench {

using aurora::ArithOp;
using aurora::CompareOp;
using aurora::Expr;
using aurora::Field;
using aurora::GlobalQuery;
using aurora::OperatorSpec;
using aurora::Predicate;
using aurora::Rng;
using aurora::Schema;
using aurora::SchemaPtr;
using aurora::ValueType;

const char* RuntimeName(Runtime r) {
  switch (r) {
    case Runtime::kAurora:
      return "aurora";
    case Runtime::kThreaded:
      return "threaded";
    case Runtime::kFederation:
      return "federation";
  }
  return "?";
}

namespace {

Value I(int64_t v) { return Value(v); }

OperatorSpec EveryN(const std::string& agg, const std::string& field,
                    const std::string& key, int64_t n) {
  OperatorSpec spec = aurora::TumbleSpec(agg, field, {key});
  spec.SetParam("emit", Value(std::string("every_n")));
  spec.SetParam("n", I(n));
  return spec;
}

Expr Ref(const std::string& f) { return Expr::FieldRef(f); }
Expr Add(Expr a, Expr b) { return Expr::Arith(ArithOp::kAdd, a, b); }

void Check(const aurora::Status& st) { AURORA_CHECK(st.ok()) << st.ToString(); }

/// Every-n tumble state of one branch: per key, a running count and sum.
struct Windows {
  struct Open {
    int64_t count = 0;
    int64_t sum = 0;
  };
  std::unordered_map<int64_t, Open> open;

  /// Adds `value` to key's window; true (and `*sum`) when it closes.
  bool Add(int64_t key, int64_t value, int64_t n, int64_t* sum) {
    Open& w = open[key];
    ++w.count;
    w.sum += value;
    if (w.count < n) return false;
    *sum = w.sum;
    open.erase(key);
    return true;
  }
};

// ---- chain_num --------------------------------------------------------------
// in(k, v, a, b) --fan-out 4--> [filter(v >= 5) -> map(k, v+1, a, b) ->
// tumble(cnt v by k, every 16)] -> out<b>.

constexpr int kChainBranches = 4;

class ChainNumReference : public Reference {
 public:
  ChainNumReference() : Reference(kChainBranches) {}
  void Feed(int, const Tuple& t, int64_t index) override {
    box_tuples += kChainBranches;
    if (t.value(1).AsInt() < 5) return;
    const int64_t k = t.value(0).AsInt();
    for (int b = 0; b < kChainBranches; ++b) {
      box_tuples += 2;
      int64_t count = 0;
      if (windows_[b].Add(k, 1, 16, &count)) {
        expected[b].push_back({DigestRow({I(k), I(count)}), index});
      }
    }
  }

 private:
  Windows windows_[kChainBranches];
};

void BuildChainNum(uint64_t seed, Workload* w) {
  w->runtime = Runtime::kAurora;
  w->batch_size = 1;
  w->block = 4096;
  w->open_rate = 40000;
  SchemaPtr schema = Schema::Make({Field{"k", ValueType::kInt64},
                                   Field{"v", ValueType::kInt64},
                                   Field{"a", ValueType::kInt64},
                                   Field{"b", ValueType::kInt64}});
  GlobalQuery& q = w->query;
  w->inputs = {"in"};
  Check(q.AddInput("in", schema));
  for (int b = 0; b < kChainBranches; ++b) {
    const std::string s = std::to_string(b);
    Check(q.AddBox("f" + s, aurora::FilterSpec(Predicate::Compare(
                                "v", CompareOp::kGe, I(5)))));
    Check(q.AddBox("m" + s, aurora::MapSpec({{"k", Ref("k")},
                                             {"v", Add(Ref("v"), Expr::Constant(I(1)))},
                                             {"a", Ref("a")},
                                             {"b", Ref("b")}})));
    Check(q.AddBox("t" + s, EveryN("cnt", "v", "k", 16)));
    Check(q.AddOutput("out" + s));
    Check(q.ConnectInputToBox("in", "f" + s));
    Check(q.ConnectBoxes("f" + s, 0, "m" + s, 0));
    Check(q.ConnectBoxes("m" + s, 0, "t" + s, 0));
    Check(q.ConnectBoxToOutput("t" + s, 0, "out" + s));
    w->outputs.push_back("out" + s);
    w->checks.push_back(PortCheck::kSequence);
    w->placement["f" + s] = 0;
    w->placement["m" + s] = 0;
    w->placement["t" + s] = 1;
  }
  Rng rng(seed);
  for (int i = 0; i < 16384; ++i) {
    w->pool.push_back(aurora::MakeTuple(
        schema, {I(rng.UniformInt(0, 7)), I(rng.UniformInt(0, 9)),
                 I(rng.UniformInt(0, 999)), I(rng.UniformInt(0, 999))}));
    w->pool_port.push_back(0);
  }
  w->make_reference = [] { return std::make_unique<ChainNumReference>(); };
}

// ---- dag_str ----------------------------------------------------------------
// Two inputs of 16 fields (id, k, v, x, s0..s6 strings, n0..n4):
//   inA -> fA(s0 < "q") -> mA(16 identities + w = v*3 + x) -> tA(sum w by k,
//   every 4) -> outA; same for B with fB(s1 >= "h");
//   fA, fB -> union -> mu(id, k, s0, v2 = v + x) -> outU.

constexpr int kDagStrings = 7;
constexpr int kDagInts = 5;
constexpr int kDagKeys = 50000;
constexpr int kDagStringBytes = 40;

bool DagPass(int port, const Tuple& t) {
  return port == 0 ? t.value(4).AsString() < "q" : t.value(5).AsString() >= "h";
}

class DagStrReference : public Reference {
 public:
  DagStrReference() : Reference(3) {}
  void Feed(int port, const Tuple& t, int64_t index) override {
    box_tuples += 1;
    if (!DagPass(port, t)) return;
    box_tuples += 4;  // map, tumble, union, union map
    const int64_t k = t.value(1).AsInt();
    const int64_t v = t.value(2).AsInt();
    const int64_t x = t.value(3).AsInt();
    int64_t sum = 0;
    if (windows_[port].Add(k, v * 3 + x, 4, &sum)) {
      expected[port].push_back({DigestRow({I(k), I(sum)}), index});
    }
    expected[2].push_back(
        {DigestRow({t.value(0), t.value(1), t.value(4), I(v + x)}), index});
  }

 private:
  Windows windows_[2];
};

void BuildDagStr(uint64_t seed, Workload* w) {
  w->runtime = Runtime::kAurora;
  w->batch_size = 64;
  w->block = 2048;
  w->open_rate = 5000;
  // Two ~420-byte tuples per input cross the federation's 10 MB/s link.
  w->sim_rate = 5000;
  // Below the ~0.8 MB of wire bytes one pushed block queues on the two
  // filter arcs, so every round spills and reads back through the store.
  w->memory_budget_bytes = 256 * 1024;
  // The store's memory tier holds a round's spill, so read-back takes the
  // store's cached path. A read past that tier rescans the log for every
  // record (about 6 ms a record at the default 256 KiB tier), which would
  // stretch one round past the run; perfbench/README.md records it.
  w->store_cache_bytes = 4 << 20;
  std::vector<Field> fields = {Field{"id", ValueType::kInt64},
                               Field{"k", ValueType::kInt64},
                               Field{"v", ValueType::kInt64},
                               Field{"x", ValueType::kInt64}};
  for (int s = 0; s < kDagStrings; ++s) {
    fields.push_back(Field{"s" + std::to_string(s), ValueType::kString});
  }
  for (int n = 0; n < kDagInts; ++n) {
    fields.push_back(Field{"n" + std::to_string(n), ValueType::kInt64});
  }
  SchemaPtr schema = Schema::Make(fields);

  GlobalQuery& q = w->query;
  w->inputs = {"inA", "inB"};
  Check(q.AddInput("inA", schema));
  Check(q.AddInput("inB", schema));
  Check(q.AddBox("fA", aurora::FilterSpec(Predicate::Compare(
                           "s0", CompareOp::kLt, Value(std::string("q"))))));
  Check(q.AddBox("fB", aurora::FilterSpec(Predicate::Compare(
                           "s1", CompareOp::kGe, Value(std::string("h"))))));
  std::vector<std::pair<std::string, Expr>> wide;
  for (const Field& f : fields) wide.emplace_back(f.name, Ref(f.name));
  wide.emplace_back("w", Add(Expr::Arith(ArithOp::kMul, Ref("v"),
                                         Expr::Constant(I(3))),
                             Ref("x")));
  for (const char* side : {"A", "B"}) {
    const std::string s = side;
    Check(q.AddBox("m" + s, aurora::MapSpec(wide)));
    Check(q.AddBox("t" + s, EveryN("sum", "w", "k", 4)));
    Check(q.AddOutput("out" + s));
    Check(q.ConnectInputToBox("in" + s, "f" + s));
    Check(q.ConnectBoxes("f" + s, 0, "m" + s, 0));
    Check(q.ConnectBoxes("m" + s, 0, "t" + s, 0));
    Check(q.ConnectBoxToOutput("t" + s, 0, "out" + s));
    w->outputs.push_back("out" + s);
    w->checks.push_back(PortCheck::kSequence);
    w->placement["f" + s] = 0;
    w->placement["m" + s] = 0;
    w->placement["t" + s] = 1;
  }
  Check(q.AddBox("u", aurora::UnionSpec(2)));
  Check(q.AddBox("mu", aurora::MapSpec({{"id", Ref("id")},
                                        {"k", Ref("k")},
                                        {"s0", Ref("s0")},
                                        {"v2", Add(Ref("v"), Ref("x"))}})));
  Check(q.AddOutput("outU"));
  Check(q.ConnectBoxes("fA", 0, "u", 0));
  Check(q.ConnectBoxes("fB", 0, "u", 1));
  Check(q.ConnectBoxes("u", 0, "mu", 0));
  Check(q.ConnectBoxToOutput("mu", 0, "outU"));
  w->outputs.push_back("outU");
  w->checks.push_back(PortCheck::kMultiset);
  w->placement["u"] = 1;
  w->placement["mu"] = 1;

  // Zipf(1.0) over kDagKeys keys by inverse CDF.
  std::vector<double> cdf(kDagKeys);
  double total = 0;
  for (int r = 0; r < kDagKeys; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }
  Rng rng(seed);
  auto str = [&rng] {
    std::string s(kDagStringBytes, 'a');
    for (char& c : s) c = static_cast<char>('a' + rng.Uniform(26));
    return s;
  };
  for (int i = 0; i < 32768; ++i) {
    const double u = rng.NextDouble() * total;
    const int64_t key =
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    std::vector<Value> values = {I(i), I(key), I(rng.UniformInt(0, 999)),
                                 I(rng.UniformInt(0, 999))};
    for (int s = 0; s < kDagStrings; ++s) values.push_back(Value(str()));
    for (int n = 0; n < kDagInts; ++n) {
      values.push_back(I(rng.UniformInt(0, 1 << 20)));
    }
    w->pool.push_back(aurora::MakeTuple(schema, std::move(values)));
    w->pool_port.push_back(static_cast<int>(rng.Uniform(2)));
  }
  w->make_reference = [] { return std::make_unique<DagStrReference>(); };
}

// ---- threaded_chains --------------------------------------------------------
// in(A, B) --fan-out 8--> [filter(B >= 3) -> map(A, B, S = A + B) ->
// tumble(sum B by A, every 16)] -> out<c>.

constexpr int kThreadedChains = 8;

class ThreadedChainsReference : public Reference {
 public:
  ThreadedChainsReference() : Reference(kThreadedChains) {}
  void Feed(int, const Tuple& t, int64_t index) override {
    box_tuples += kThreadedChains;
    const int64_t b = t.value(1).AsInt();
    if (b < 3) return;
    const int64_t a = t.value(0).AsInt();
    for (int c = 0; c < kThreadedChains; ++c) {
      box_tuples += 2;
      int64_t sum = 0;
      if (windows_[c].Add(a, b, 16, &sum)) {
        expected[c].push_back({DigestRow({I(a), I(sum)}), index});
      }
    }
  }

 private:
  Windows windows_[kThreadedChains];
};

void BuildThreadedChains(uint64_t seed, Workload* w) {
  w->runtime = Runtime::kThreaded;
  w->batch_size = 1;
  w->block = 4096;
  w->open_rate = 20000;
  SchemaPtr schema = Schema::Make(
      {Field{"A", ValueType::kInt64}, Field{"B", ValueType::kInt64}});
  GlobalQuery& q = w->query;
  w->inputs = {"in"};
  Check(q.AddInput("in", schema));
  for (int c = 0; c < kThreadedChains; ++c) {
    const std::string s = std::to_string(c);
    Check(q.AddBox("f" + s, aurora::FilterSpec(Predicate::Compare(
                                "B", CompareOp::kGe, I(3)))));
    Check(q.AddBox("m" + s, aurora::MapSpec({{"A", Ref("A")},
                                             {"B", Ref("B")},
                                             {"S", Add(Ref("A"), Ref("B"))}})));
    Check(q.AddBox("t" + s, EveryN("sum", "B", "A", 16)));
    Check(q.AddOutput("out" + s));
    Check(q.ConnectInputToBox("in", "f" + s));
    Check(q.ConnectBoxes("f" + s, 0, "m" + s, 0));
    Check(q.ConnectBoxes("m" + s, 0, "t" + s, 0));
    Check(q.ConnectBoxToOutput("t" + s, 0, "out" + s));
    w->outputs.push_back("out" + s);
    w->checks.push_back(PortCheck::kSequence);
    w->placement["f" + s] = 0;
    w->placement["m" + s] = 0;
    w->placement["t" + s] = 1;
  }
  Rng rng(seed);
  for (int i = 0; i < 16384; ++i) {
    w->pool.push_back(aurora::MakeTuple(
        schema, {I(rng.UniformInt(0, 7)), I(rng.UniformInt(0, 9))}));
    w->pool_port.push_back(0);
  }
  w->make_reference = [] { return std::make_unique<ThreadedChainsReference>(); };
}

// ---- federation -------------------------------------------------------------
// n0: in(k, v, a, b) -> f(v >= 20) -> m(k, v, a, c = a + b) ==remote arc==>
// n1: t(sum c by k, every 4) -> out.

class FederationReference : public Reference {
 public:
  FederationReference() : Reference(1) {}
  void Feed(int, const Tuple& t, int64_t index) override {
    box_tuples += 1;
    if (t.value(1).AsInt() < 20) return;
    box_tuples += 2;
    const int64_t k = t.value(0).AsInt();
    int64_t sum = 0;
    if (windows_.Add(k, t.value(2).AsInt() + t.value(3).AsInt(), 4, &sum)) {
      expected[0].push_back({DigestRow({I(k), I(sum)}), index});
    }
  }

 private:
  Windows windows_;
};

void BuildFederation(uint64_t seed, Workload* w) {
  w->runtime = Runtime::kFederation;
  w->batch_size = 1;
  w->block = 1024;
  w->open_rate = 20000;
  w->sim_rate = 20000;
  SchemaPtr schema = Schema::Make({Field{"k", ValueType::kInt64},
                                   Field{"v", ValueType::kInt64},
                                   Field{"a", ValueType::kInt64},
                                   Field{"b", ValueType::kInt64}});
  GlobalQuery& q = w->query;
  w->inputs = {"in"};
  Check(q.AddInput("in", schema));
  Check(q.AddBox("f", aurora::FilterSpec(
                          Predicate::Compare("v", CompareOp::kGe, I(20)))));
  Check(q.AddBox("m", aurora::MapSpec({{"k", Ref("k")},
                                       {"v", Ref("v")},
                                       {"a", Ref("a")},
                                       {"c", Add(Ref("a"), Ref("b"))}})));
  Check(q.AddBox("t", EveryN("sum", "c", "k", 4)));
  Check(q.AddOutput("out"));
  Check(q.ConnectInputToBox("in", "f"));
  Check(q.ConnectBoxes("f", 0, "m", 0));
  Check(q.ConnectBoxes("m", 0, "t", 0));
  Check(q.ConnectBoxToOutput("t", 0, "out"));
  w->outputs = {"out"};
  w->checks = {PortCheck::kSequence};
  w->placement = {{"f", 0}, {"m", 0}, {"t", 1}};
  Rng rng(seed);
  for (int i = 0; i < 16384; ++i) {
    w->pool.push_back(aurora::MakeTuple(
        schema, {I(rng.UniformInt(0, 63)), I(rng.UniformInt(0, 99)),
                 I(rng.UniformInt(0, 999)), I(rng.UniformInt(0, 999))}));
    w->pool_port.push_back(0);
  }
  w->make_reference = [] { return std::make_unique<FederationReference>(); };
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"chain_num", "dag_str",
                                                  "threaded_chains",
                                                  "federation"};
  return names;
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  out->name = name;
  if (name == "chain_num") {
    BuildChainNum(seed, out);
  } else if (name == "dag_str") {
    BuildDagStr(seed, out);
  } else if (name == "threaded_chains") {
    BuildThreadedChains(seed, out);
  } else if (name == "federation") {
    BuildFederation(seed, out);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
