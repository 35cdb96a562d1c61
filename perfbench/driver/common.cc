#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iterator>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t h, uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 31);
}

}  // namespace

Digest DigestRow(const std::vector<Value>& values) {
  uint64_t fnv = 1469598103934665603ull;  // FNV-1a over tag + bytes
  uint64_t mix = 0x243f6a8885a308d3ull;   // independent word mixer
  auto bytes = [&](const void* p, size_t n) {
    const unsigned char* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      fnv = (fnv ^ c[i]) * 1099511628211ull;
    }
  };
  for (const Value& v : values) {
    const uint64_t tag = static_cast<uint64_t>(v.type());
    bytes(&tag, sizeof(tag));
    mix = Mix(mix, tag);
    switch (v.type()) {
      case aurora::ValueType::kInt64: {
        const int64_t x = v.AsInt();
        bytes(&x, sizeof(x));
        mix = Mix(mix, static_cast<uint64_t>(x));
        break;
      }
      case aurora::ValueType::kDouble: {
        uint64_t x = 0;
        const double d = v.AsDouble();
        std::memcpy(&x, &d, sizeof(x));
        bytes(&x, sizeof(x));
        mix = Mix(mix, x);
        break;
      }
      case aurora::ValueType::kString: {
        const std::string& s = v.AsString();
        bytes(s.data(), s.size());
        mix = Mix(mix, s.size());
        for (size_t i = 0; i < s.size(); i += 8) {
          uint64_t word = 0;
          std::memcpy(&word, s.data() + i, std::min<size_t>(8, s.size() - i));
          mix = Mix(mix, word);
        }
        break;
      }
      default: {
        const uint64_t x = v.is_null() ? 0 : (v.AsBool() ? 1 : 2);
        bytes(&x, sizeof(x));
        mix = Mix(mix, x);
      }
    }
  }
  return Digest{fnv, mix};
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

namespace {
thread_local bool on_driver_thread = false;
}  // namespace

StealLog& StealLog::Driver() {
  static StealLog log;
  on_driver_thread = true;
  return log;
}

StealLog* StealLog::OnDriverThread() {
  return on_driver_thread ? &Driver() : nullptr;
}

int64_t StealLog::StolenAt(int64_t wall_ns) const {
  auto it = std::upper_bound(
      marks_.begin(), marks_.end(), wall_ns,
      [](int64_t w, const MarkRec& m) { return w < m.wall_ns; });
  if (it == marks_.begin()) return marks_.empty() ? 0 : marks_.front().stolen_ns;
  return std::prev(it)->stolen_ns;
}

Spans& Spans::Get() {
  static Spans spans;
  return spans;
}

int Spans::Begin(const char* name) {
  SpanRec rec;
  rec.name = name;
  rec.parent = open_;
  rec.run = run_;
  rec.start_ns = NowNs();
  spans_.push_back(rec);
  open_ = static_cast<int>(spans_.size()) - 1;
  return open_;
}

void Spans::End(int id) {
  spans_[id].end_ns = NowNs();
  open_ = spans_[id].parent;
}

double Spans::TotalNs(const std::string& name, int run) const {
  double total = 0;
  for (const SpanRec& s : spans_) {
    if (s.run == run && name == s.name) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total;
}

double Spans::SelfNs(const std::string& name, int run) const {
  // Children nest strictly (one recording thread), so the covered part of a
  // span is the sum of its direct children's durations.
  std::vector<double> child(spans_.size(), 0);
  for (const SpanRec& s : spans_) {
    if (s.parent >= 0) child[s.parent] += static_cast<double>(s.end_ns - s.start_ns);
  }
  double self = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run != run || name != spans_[i].name) continue;
    self += static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) - child[i];
  }
  return self;
}

size_t Spans::Count(const std::string& name, int run) const {
  size_t n = 0;
  for (const SpanRec& s : spans_) n += s.run == run && name == s.name;
  return n;
}

bool Spans::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "name,start_ns,end_ns,parent,run\n";
  for (const SpanRec& s : spans_) {
    out << s.name << ',' << s.start_ns << ',' << s.end_ns << ',' << s.parent
        << ',' << s.run << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
