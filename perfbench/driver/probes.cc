#include "probes.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"
#include "ops/operator.h"
#include "tuple/serde.h"
#include "tuple/tuple_batch.h"

namespace perfbench {

using aurora::GlobalQuery;
using aurora::OperatorPtr;
using aurora::SchemaPtr;
using aurora::SimTime;

namespace {

/// Tuples one probe round feeds through the operator network.
constexpr size_t kProbeSlice = 8192;

class Collect : public aurora::Emitter {
 public:
  explicit Collect(std::vector<Tuple>* out) : out_(out) {}
  void Emit(int, Tuple t) override { out_->push_back(std::move(t)); }

 private:
  std::vector<Tuple>* out_;
};

struct ProbeBox {
  OperatorPtr op;
  /// Producer of each input: a workload input (box < 0) or a box.
  struct Source {
    int input = -1;
    int box = -1;
  };
  std::vector<Source> sources;
  std::vector<Tuple> out;
  double ns = 0;
  uint64_t tuples = 0;
};

/// Feeds `in` to input `input` of `op`: in batches of `batch` through
/// ProcessBatch when batching applies to the box (single-input, batch > 1,
/// as in both engines), else one Process call per tuple.
void Feed(aurora::Operator* op, int input, const std::vector<Tuple>& in,
          int batch, aurora::Emitter* emit) {
  if (batch > 1 && op->num_inputs() == 1) {
    aurora::TupleBatch tb;
    tb.Reserve(static_cast<size_t>(batch));
    for (size_t i = 0; i < in.size(); i += static_cast<size_t>(batch)) {
      tb.Clear();
      const size_t end = std::min(in.size(), i + static_cast<size_t>(batch));
      for (size_t j = i; j < end; ++j) tb.Push(in[j], SimTime());
      AURORA_CHECK(op->ProcessBatch(input, tb, emit).ok());
    }
    return;
  }
  for (const Tuple& t : in) AURORA_CHECK(op->Process(input, t, SimTime(), emit).ok());
}

/// Instantiates the query's boxes in declaration order (the workloads
/// declare every box after its producers).
std::vector<ProbeBox> Instantiate(const Workload& w) {
  const GlobalQuery& q = w.query;
  std::map<std::string, int> box_index;
  for (size_t b = 0; b < q.boxes().size(); ++b) box_index[q.boxes()[b].name] = static_cast<int>(b);
  std::map<std::string, int> input_index;
  for (size_t i = 0; i < w.inputs.size(); ++i) input_index[w.inputs[i]] = static_cast<int>(i);

  std::vector<ProbeBox> boxes(q.boxes().size());
  for (size_t b = 0; b < q.boxes().size(); ++b) {
    auto op = aurora::CreateOperator(q.boxes()[b].spec);
    AURORA_CHECK(op.ok()) << op.status().ToString();
    boxes[b].op = std::move(*op);
    boxes[b].sources.resize(static_cast<size_t>(boxes[b].op->num_inputs()));
  }
  using Arc = GlobalQuery::ArcDef;
  for (const Arc& a : q.arcs()) {
    if (a.to_kind != Arc::ToKind::kBox) continue;
    ProbeBox::Source& src = boxes[box_index.at(a.to)].sources[a.to_index];
    if (a.from_kind == Arc::FromKind::kInput) {
      src.input = input_index.at(a.from);
    } else {
      src.box = box_index.at(a.from);
    }
  }
  for (size_t b = 0; b < boxes.size(); ++b) {
    std::vector<SchemaPtr> schemas;
    for (const ProbeBox::Source& src : boxes[b].sources) {
      if (src.box >= 0) {
        AURORA_CHECK(static_cast<size_t>(src.box) < b) << "box order";
        schemas.push_back(boxes[src.box].op->output_schema(0));
      } else {
        schemas.push_back(q.inputs()[src.input].schema);
      }
    }
    AURORA_CHECK(boxes[b].op->Init(schemas).ok());
  }
  return boxes;
}

void ProbeOperators(const Workload& w, double seconds, ProbeResult* r) {
  std::vector<ProbeBox> boxes = Instantiate(w);
  // A standalone two-input union over the same slice prices the union
  // kernel on workloads whose query has none.
  bool has_union = false;
  for (const ProbeBox& b : boxes) has_union |= b.op->kind() == "union";
  OperatorPtr lone_union;
  if (!has_union) {
    auto op = aurora::CreateOperator(aurora::UnionSpec(2));
    AURORA_CHECK(op.ok());
    lone_union = std::move(*op);
    SchemaPtr schema = w.query.inputs()[0].schema;
    AURORA_CHECK(lone_union->Init({schema, schema}).ok());
  }
  double union_ns = 0;
  uint64_t union_tuples = 0;
  std::vector<Tuple> union_out;

  std::vector<std::vector<Tuple>> slice(w.inputs.size());
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  int64_t next = 0;
  uint64_t inputs = 0;
  do {
    for (auto& s : slice) s.clear();
    for (size_t j = 0; j < kProbeSlice; ++j, ++next) {
      slice[static_cast<size_t>(w.input_port(next))].push_back(w.input(next));
    }
    inputs += kProbeSlice;
    for (ProbeBox& b : boxes) {
      b.out.clear();
      Collect emit(&b.out);
      for (size_t in = 0; in < b.sources.size(); ++in) {
        const ProbeBox::Source& src = b.sources[in];
        const std::vector<Tuple>& feed =
            src.box >= 0 ? boxes[src.box].out : slice[src.input];
        const int64_t t0 = NowNs();
        Feed(b.op.get(), static_cast<int>(in), feed, w.batch_size, &emit);
        b.ns += static_cast<double>(NowNs() - t0);
        b.tuples += feed.size();
      }
    }
    if (lone_union != nullptr) {
      union_out.clear();
      Collect emit(&union_out);
      const std::vector<Tuple>& feed = slice[0];
      const size_t half = feed.size() / 2;
      const int64_t t0 = NowNs();
      for (size_t j = 0; j < feed.size(); ++j) {
        AURORA_CHECK(lone_union->Process(j < half ? 0 : 1, feed[j], SimTime(), &emit).ok());
      }
      union_ns += static_cast<double>(NowNs() - t0);
      union_tuples += feed.size();
    }
  } while (NowNs() < deadline);

  std::map<std::string, std::pair<double, uint64_t>> by_kind;
  double total_ns = 0;
  for (const ProbeBox& b : boxes) {
    auto& k = by_kind[b.op->kind()];
    k.first += b.ns;
    k.second += b.tuples;
    total_ns += b.ns;
  }
  if (lone_union != nullptr) by_kind["union"] = {union_ns, union_tuples};
  for (const auto& [kind, v] : by_kind) {
    r->op_ns_per_tuple[kind] = v.second == 0 ? 0 : v.first / static_cast<double>(v.second);
  }
  r->chain_ns_per_input = total_ns / static_cast<double>(inputs);
}

void ProbeSerde(const Workload& w, double seconds, ProbeResult* r) {
  // Trains of one input port's tuples (one schema per train), as the
  // transport builds them.
  const size_t train = static_cast<size_t>(kTrainSize);
  std::vector<std::vector<Tuple>> trains;
  std::vector<SchemaPtr> schemas;
  std::vector<std::vector<Tuple>> open(w.inputs.size());
  for (size_t i = 0; i < w.pool.size(); ++i) {
    std::vector<Tuple>& o = open[static_cast<size_t>(w.pool_port[i])];
    o.push_back(w.pool[i]);
    if (o.size() == train) {
      schemas.push_back(o.front().schema());
      trains.push_back(std::move(o));
      o.clear();
    }
  }
  std::vector<std::vector<uint8_t>> wire(trains.size());
  double enc_ns = 0, dec_ns = 0;
  uint64_t enc_tuples = 0, dec_tuples = 0, bytes = 0;
  std::vector<Tuple> decoded;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    const int64_t t0 = NowNs();
    for (size_t k = 0; k < trains.size(); ++k) {
      wire[k].clear();
      aurora::SerializeTuplesInto(trains[k], &wire[k]);
    }
    const int64_t t1 = NowNs();
    for (size_t k = 0; k < trains.size(); ++k) {
      decoded.clear();
      AURORA_CHECK(aurora::DeserializeTuplesInto(wire[k], schemas[k], &decoded).ok());
      AURORA_CHECK(decoded.size() == trains[k].size());
    }
    const int64_t t2 = NowNs();
    enc_ns += static_cast<double>(t1 - t0);
    dec_ns += static_cast<double>(t2 - t1);
    for (size_t k = 0; k < trains.size(); ++k) {
      enc_tuples += trains[k].size();
      bytes += wire[k].size();
    }
    dec_tuples = enc_tuples;
  } while (NowNs() < deadline);
  r->encode_ns_per_tuple = enc_ns / static_cast<double>(enc_tuples);
  r->decode_ns_per_tuple = dec_ns / static_cast<double>(dec_tuples);
  r->bytes_per_tuple = static_cast<double>(bytes) / static_cast<double>(enc_tuples);
}

}  // namespace

ProbeResult RunProbes(const Workload& w, double seconds) {
  ProbeResult r;
  {
    Span span("probe.ops");
    ProbeOperators(w, seconds * 0.6, &r);
  }
  {
    Span span("probe.serde");
    ProbeSerde(w, seconds * 0.4, &r);
  }
  return r;
}

}  // namespace perfbench
