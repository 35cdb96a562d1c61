#include "check.h"

#include <algorithm>
#include <deque>
#include <map>

namespace perfbench {

bool OutputLog::Damage(const Tuple& t, Observed* o) {
  switch (fault_) {
    case OutputFault::kCorrupt: {
      std::vector<Value> values = t.values();
      Value& last = values.back();
      last = last.type() == aurora::ValueType::kString
                 ? Value(last.AsString() + "!")
                 : Value(last.AsInt() + 1);
      o->digest = DigestRow(values);
      break;
    }
    case OutputFault::kDrop:
      fault_ = OutputFault::kNone;
      return false;
    case OutputFault::kSwap:
      if (!held_) {
        held_ = true;
        hold_ = *o;
        return false;
      }
      got_.push_back(*o);
      *o = hold_;
      break;
    case OutputFault::kNone:
      break;
  }
  fault_ = OutputFault::kNone;
  return true;
}

Checker::Checker(const Workload& w)
    : w_(w), ref_(w.make_reference()), logs_(w.outputs.size()) {}

void Checker::SetStamp(bool stamp) {
  for (OutputLog& log : logs_) log.set_stamp(stamp);
}

void Checker::Feed(int64_t from, int64_t to,
                   const std::vector<int64_t>& refused) {
  auto skip = std::lower_bound(refused.begin(), refused.end(), from);
  for (int64_t i = from; i < to; ++i) {
    if (skip != refused.end() && *skip == i) {
      ++skip;
      continue;
    }
    ref_->Feed(w_.input_port(i), w_.input(i), i);
  }
}

void Checker::Mismatch(const std::string& what) {
  ++tally_.mismatched;
  if (tally_.first_error.empty()) tally_.first_error = what;
}

void Checker::Compare(int64_t t0_ns, double period_ns,
                      std::vector<LatencySample>* latency_out) {
  auto latency = [&](const Observed& got, int64_t source) {
    if (latency_out == nullptr) return;
    const int64_t due = t0_ns + static_cast<int64_t>(
                                    static_cast<double>(source) * period_ns);
    const int64_t lost =
        got.steal == nullptr ? 0 : got.stolen_ns - got.steal->StolenAt(due);
    latency_out->push_back(
        {source, static_cast<double>(got.t_ns - due - lost) / 1e3});
  };
  for (size_t p = 0; p < logs_.size(); ++p) {
    std::vector<Observed>& got = logs_[p].got();
    std::vector<Expected>& exp = ref_->expected[p];
    const std::string& port = w_.outputs[p];
    if (w_.checks[p] == PortCheck::kSequence) {
      const size_t n = std::min(got.size(), exp.size());
      for (size_t j = 0; j < n; ++j) {
        if (!(got[j].digest == exp[j].digest)) {
          Mismatch(port + ": row " + std::to_string(j) +
                   " differs from the reference");
          continue;
        }
        ++tally_.matched;
        latency(got[j], exp[j].source);
      }
      if (got.size() > exp.size()) {
        Mismatch(port + ": " + std::to_string(got.size() - exp.size()) +
                 " rows beyond the reference");
      }
    } else {
      // Multiset: each delivered row takes the earliest unmatched expected
      // row with its digest; the sources so assigned must rise per input.
      std::map<Digest, std::deque<size_t>> pending;
      for (size_t j = 0; j < exp.size(); ++j) {
        pending[exp[j].digest].push_back(j);
      }
      std::vector<int64_t> last(w_.inputs.size(), -1);
      size_t taken = 0;
      for (const Observed& g : got) {
        auto it = pending.find(g.digest);
        if (it == pending.end() || it->second.empty()) {
          Mismatch(port + ": a row not in the reference multiset");
          continue;
        }
        const Expected& e = exp[it->second.front()];
        it->second.pop_front();
        ++taken;
        const int in = w_.input_port(e.source);
        if (e.source <= last[in]) {
          Mismatch(port + ": rows of input " + w_.inputs[in] +
                   " out of order");
          continue;
        }
        last[in] = e.source;
        ++tally_.matched;
        latency(g, e.source);
      }
      if (exp.size() > taken) tally_.missing += exp.size() - taken;
    }
    if (w_.checks[p] == PortCheck::kSequence && exp.size() > got.size()) {
      tally_.missing += exp.size() - got.size();
    }
    got.clear();
    exp.clear();
  }
}

}  // namespace perfbench
