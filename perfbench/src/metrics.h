// Measurement helpers of the repo benchmark: exact percentiles with the
// sample-count rule, monotone counter deltas, and the metric report emitted as
// one JSON line. Header-only so the benchmark's own tests exercise exactly the
// code the benchmark runs.
#ifndef FLOCK_PERFBENCH_SRC_METRICS_H_
#define FLOCK_PERFBENCH_SRC_METRICS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace flock::perfbench {

// A percentile is reported only when at least this many samples lie beyond
// it: p50 needs 20 samples, p99 needs 1000.
constexpr uint64_t kSamplesBeyondPercentile = 10;

// Smallest sample count that supports the `pct`-th percentile (1..99).
constexpr uint64_t MinSamplesFor(int pct) {
  const uint64_t tail = static_cast<uint64_t>(100 - pct);
  return (kSamplesBeyondPercentile * 100 + tail - 1) / tail;
}

struct Percentile {
  bool supported = false;
  double value = 0;  // 0 when unsupported
  uint64_t samples = 0;
};

// Exact percentiles over raw integer samples (simulated nanoseconds). The
// nearest-rank order statistic v = x[ceil(q n)] is refined inside its 1-ns
// bin: the k-th of the m samples equal to v reads v - 0.5 + (k - 0.5) / m,
// the linearly interpolated percentile of the 1-ns histogram. It stays
// within half a nanosecond of v and, unlike v, moves when the tie counts do.
class SampleSet {
 public:
  void Add(int64_t v) {
    samples_.push_back(v);
    sorted_ = false;
  }
  void Merge(const SampleSet& other) {
    samples_.insert(samples_.end(), other.samples_.begin(), other.samples_.end());
    sorted_ = false;
  }
  uint64_t size() const { return samples_.size(); }

  Percentile At(int pct) {
    Percentile p;
    p.samples = samples_.size();
    if (p.samples < MinSamplesFor(pct)) {
      return p;
    }
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    // Rank ceil(pct/100 * n), 1-based; integer arithmetic keeps it exact.
    const uint64_t rank = (static_cast<uint64_t>(pct) * p.samples + 99) / 100;
    const int64_t v = samples_[rank - 1];
    const auto lo = std::lower_bound(samples_.begin(), samples_.end(), v);
    const auto hi = std::upper_bound(samples_.begin(), samples_.end(), v);
    const auto k = static_cast<double>(rank - static_cast<uint64_t>(lo - samples_.begin()));
    p.supported = true;
    p.value = static_cast<double>(v) - 0.5 + (k - 0.5) / static_cast<double>(hi - lo);
    return p;
  }

 private:
  std::vector<int64_t> samples_;
  bool sorted_ = true;
};

// Counter delta over a window. Counters only grow, so a negative delta means
// the snapshot pair is wrong: fail loudly rather than report garbage.
struct DeltaError {
  std::string counter;
};

inline uint64_t Delta(const char* name, uint64_t before, uint64_t after,
                      std::vector<DeltaError>* errors) {
  if (after < before) {
    errors->push_back(DeltaError{name});
    return 0;
  }
  return after - before;
}

// num / den, 0 when nothing happened (den == 0).
inline double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// One named metric with its unit. `samples` is the count behind a percentile
// (0 for counts and ratios).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit, uint64_t samples = 0) {
    metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
  }
  // Percentile in microseconds from nanosecond samples; 0 with its sample
  // count when the count does not support it.
  void AddPercentileUs(std::string name, const Percentile& p) {
    Add(std::move(name), p.supported ? p.value / 1e3 : 0.0, "us", p.samples);
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const {
    for (const Metric& m : metrics_) {
      if (m.name == name) {
        return &m;
      }
    }
    return nullptr;
  }

  // {"name":{"value":v,"unit":"u","samples":n},...} with every double printed
  // at round-trip precision, so a parser recovers the exact binary value.
  std::string ToJson() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) {
        out += ",";
      }
      out += "\"" + m.name + "\":{\"value\":" + FormatDouble(m.value) +
             ",\"unit\":\"" + m.unit + "\",\"samples\":" + std::to_string(m.samples) +
             "}";
    }
    return out + "}";
  }

  static std::string FormatDouble(double v) {
    if (!std::isfinite(v)) {
      return "null";  // JSON has no NaN/inf; the reader rejects null values
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

 private:
  std::vector<Metric> metrics_;
};

// Escapes a string for a JSON string literal (errors carry free text).
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Order-sensitive FNV-1a over 64-bit words: two runs with equal hashes
// executed the same observable trace. The same fold as bench/bench_util.h's
// TraceHash, repeated so the benchmark builds against src/ alone.
class TraceHash {
 public:
  TraceHash& Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
    return *this;
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace flock::perfbench

#endif  // FLOCK_PERFBENCH_SRC_METRICS_H_
