// Shared utilities for the figure-reproduction benches: flag parsing,
// paper-style table printing, and machine-readable output. Every bench prints
// a human-readable table (one row per x-value); --json=<path> writes its rows
// as a JSON document, the one machine-readable output, so tooling never has
// to scrape stdout.
#ifndef FLOCK_BENCH_BENCH_UTIL_H_
#define FLOCK_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/units.h"
#include "src/sim/simulator.h"

namespace flock::bench {

// --key=value flags. Each bench reads its flags, then calls Finish() once:
// a key no read asked for exits 2 (typos are loud), and --help lists every
// key read with its default and exits 0 without running the bench.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        std::fprintf(stderr, "unknown argument: %s\n", arg);
        std::exit(2);
      }
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr) {
        pairs_.emplace_back(arg + 2, "1");
      } else {
        pairs_.emplace_back(std::string(arg + 2, static_cast<size_t>(eq - arg - 2)),
                            eq + 1);
      }
    }
  }

  int64_t Int(const std::string& name, int64_t fallback) const {
    const std::string* v = Find(name, std::to_string(fallback));
    return v == nullptr ? fallback : std::strtoll(v->c_str(), nullptr, 10);
  }

  bool Bool(const std::string& name, bool fallback) const {
    const std::string* v = Find(name, fallback ? "1" : "0");
    if (v == nullptr) {
      return fallback;
    }
    return *v == "1" || *v == "true" || *v == "yes";
  }

  std::string Str(const std::string& name, const std::string& fallback) const {
    const std::string* v = Find(name, fallback);
    return v == nullptr ? fallback : *v;
  }

  bool help() const {
    for (const auto& [k, v] : pairs_) {
      if (k == "help") {
        return true;
      }
    }
    return false;
  }

  void Finish() {
    if (help()) {
      for (const auto& [k, fallback] : read_) {
        std::printf("--%s=%s\n", k.c_str(), fallback.c_str());
      }
      std::exit(0);
    }
    for (const auto& [k, v] : pairs_) {
      if (!Read(k)) {
        std::fprintf(stderr, "unknown flag: --%s\n", k.c_str());
        std::exit(2);
      }
    }
  }

 private:
  bool Read(const std::string& name) const {
    for (const auto& [k, fallback] : read_) {
      if (k == name) {
        return true;
      }
    }
    return false;
  }

  const std::string* Find(const std::string& name, std::string fallback) const {
    if (!Read(name)) {
      read_.emplace_back(name, std::move(fallback));
    }
    for (const auto& [k, v] : pairs_) {
      if (k == name) {
        return &v;
      }
    }
    return nullptr;
  }

  std::vector<std::pair<std::string, std::string>> pairs_;
  // Keys read so far with their defaults, in read order (for --help).
  mutable std::vector<std::pair<std::string, std::string>> read_;
};

inline void PrintBanner(const char* title) {
  std::printf("\n==== %s ====\n", title);
}

// Per-op latency off the simulator clock, for data-plane paths that have no
// PendingRpc carrying submitted_at/completed_at (one-sided reads, atomics,
// multi-step composites). Usage inside a worker coroutine:
//
//   LatencyRecorder lat(cluster->sim(), &shared->get_latency);
//   const Nanos start = lat.Start();
//   ... co_await the op(s) ...
//   if (shared->measuring) lat.Record(start);
class LatencyRecorder {
 public:
  LatencyRecorder(const sim::Simulator& sim, Histogram* hist)
      : sim_(&sim), hist_(hist) {}

  Nanos Start() const { return sim_->Now(); }
  void Record(Nanos started_at) { hist_->Record(sim_->Now() - started_at); }

 private:
  const sim::Simulator* sim_;
  Histogram* hist_;
};

// One cell of a JSON row: number, string, or bool. Implicit constructors keep
// Row() call sites terse.
struct JsonValue {
  enum class Kind { kNumber, kString, kBool };

  JsonValue(double v) : kind(Kind::kNumber), num(v) {}             // NOLINT
  JsonValue(int v) : kind(Kind::kNumber), num(v) {}                // NOLINT
  JsonValue(int64_t v)                                             // NOLINT
      : kind(Kind::kNumber), num(static_cast<double>(v)) {}
  JsonValue(uint64_t v)                                            // NOLINT
      : kind(Kind::kNumber), num(static_cast<double>(v)) {}
  JsonValue(uint32_t v) : kind(Kind::kNumber), num(v) {}           // NOLINT
  JsonValue(const char* v) : kind(Kind::kString), str(v) {}        // NOLINT
  JsonValue(std::string v) : kind(Kind::kString), str(std::move(v)) {}  // NOLINT
  JsonValue(bool v) : kind(Kind::kBool), boolean(v) {}             // NOLINT

  void AppendTo(std::string* out) const {
    char buf[64];
    switch (kind) {
      case Kind::kNumber:
        if (num == static_cast<double>(static_cast<int64_t>(num))) {
          std::snprintf(buf, sizeof(buf), "%lld",
                        static_cast<long long>(num));
        } else {
          std::snprintf(buf, sizeof(buf), "%.6g", num);
        }
        out->append(buf);
        break;
      case Kind::kString:
        out->push_back('"');
        for (char c : str) {
          if (c == '"' || c == '\\') {
            out->push_back('\\');
          }
          out->push_back(c);
        }
        out->push_back('"');
        break;
      case Kind::kBool:
        out->append(boolean ? "true" : "false");
        break;
    }
  }

  Kind kind;
  double num = 0;
  std::string str;
  bool boolean = false;
};

// A JSON row composed incrementally. Field order is emission order, so the
// machine-readable schema of every bench is spelled in one place per row.
class JsonRow {
 public:
  JsonRow& Add(const char* key, JsonValue value) {
    fields_.emplace_back(key, std::move(value));
    return *this;
  }

  const std::vector<std::pair<const char*, JsonValue>>& fields() const {
    return fields_;
  }

 private:
  std::vector<std::pair<const char*, JsonValue>> fields_;
};

// End-of-run control-plane lane census, accumulated across connection
// handles. Shared by every bench that gates on (or reports) lane health, so
// the key names and ordering of the machine output cannot drift between
// benches. Templated on the handle type to keep this header free of flock
// includes (it is also used by kernel-only benches that do not link flock).
struct LaneCensus {
  uint64_t healthy = 0;
  uint64_t quarantined = 0;
  uint64_t reconnecting = 0;
  uint64_t retired = 0;
  uint64_t reconnects = 0;

  template <typename ConnT>
  void Add(const ConnT& conn) {
    const auto states = conn.CountLaneStates();
    healthy += states.healthy;
    quarantined += states.quarantined;
    reconnecting += states.reconnecting;
    retired += states.retired;
    reconnects += conn.lane_reconnects();
  }

  // Canonical census keys, in canonical order. perf_smoke's committed
  // baseline schema predates the retired counter, so it stays opt-in.
  void AppendTo(JsonRow* row, bool include_retired) const {
    row->Add("lanes_healthy", healthy)
        .Add("lanes_quarantined", quarantined)
        .Add("lanes_reconnecting", reconnecting);
    if (include_retired) {
      row->Add("lanes_retired", retired);
    }
    row->Add("lane_reconnects", reconnects);
  }
};

// Snapshot of the event kernel's delivery counters. Capture before and after
// a measured region and subtract, or capture once at the end for whole-run
// totals. Shared by perf_smoke and sim_kernel so both report the same
// counter set the same way.
struct KernelCounters {
  uint64_t events = 0;
  uint64_t resumes = 0;
  uint64_t direct_resumes = 0;
  uint64_t coalesced_wakes = 0;
  // Idle passes parked pollers skipped (DESIGN.md §7): events +
  // elided_passes is how much polling the run modelled.
  uint64_t elided_passes = 0;
  // Parked passes put back into the queue as events.
  uint64_t requeued_passes = 0;

  template <typename SimT>
  static KernelCounters Capture(const SimT& sim) {
    KernelCounters c;
    c.events = sim.events_processed();
    c.resumes = sim.resumes();
    c.direct_resumes = sim.direct_resumes();
    c.coalesced_wakes = sim.coalesced_wakes();
    c.elided_passes = sim.elided_passes();
    c.requeued_passes = sim.requeued_passes();
    return c;
  }

  KernelCounters Since(const KernelCounters& before) const {
    KernelCounters d;
    d.events = events - before.events;
    d.resumes = resumes - before.resumes;
    d.direct_resumes = direct_resumes - before.direct_resumes;
    d.coalesced_wakes = coalesced_wakes - before.coalesced_wakes;
    d.elided_passes = elided_passes - before.elided_passes;
    d.requeued_passes = requeued_passes - before.requeued_passes;
    return d;
  }
};

// Order-sensitive FNV-1a accumulator over 64-bit words. Benches and the
// determinism tests fold per-node observable state (device counters, per-node
// completion counts, final simulated time) into one fingerprint; two runs
// whose fingerprints match executed the same observable trace. Fold nodes in
// node-id order so the hash is a function of the trace, not of shard layout.
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
  uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV-1a 64-bit offset basis
};

// Host wall-clock stopwatch for the throughput benches.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Runs fn() `repeats` times and keeps the result ranked highest by `key`
// (wall-clock benches keep the fastest repeat, not the mean, so background
// host noise only ever costs reruns, never skews the recorded number).
template <typename Fn, typename Key>
auto BestOf(int repeats, Fn&& fn, Key&& key) {
  auto best = fn();
  for (int i = 1; i < repeats; ++i) {
    auto r = fn();
    if (key(r) > key(best)) {
      best = std::move(r);
    }
  }
  return best;
}

// Collects rows of key/value results and writes them as one JSON document:
//   {"bench": "<name>", "rows": [{...}, ...]}
// Construct from Flags to honor the shared --json=<path> flag (no path → all
// calls are no-ops, so benches can call Row() unconditionally next to their
// table prints). The path is opened at construction, so an unwritable one exits
// 2 before the bench runs. Write() runs in the destructor if not called
// explicitly.
class JsonDump {
 public:
  JsonDump(const Flags& flags, const char* bench_name)
      : path_(flags.Str("json", "")), bench_(bench_name) {
    if (!enabled() || flags.help()) {
      return;
    }
    file_ = std::fopen(path_.c_str(), "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "cannot open --json=%s for writing\n", path_.c_str());
      std::exit(2);
    }
  }

  ~JsonDump() { Write(); }

  JsonDump(const JsonDump&) = delete;
  JsonDump& operator=(const JsonDump&) = delete;

  bool enabled() const { return !path_.empty(); }

  void Row(std::initializer_list<std::pair<const char*, JsonValue>> fields) {
    RowImpl(fields);
  }
  void Row(const JsonRow& fields) { RowImpl(fields.fields()); }

  // Writes the document once; returns false (and reports) on I/O failure.
  bool Write() {
    if (file_ == nullptr) {
      return true;
    }
    std::string doc = "{\"bench\":\"";
    doc.append(bench_);
    doc.append("\",\"rows\":[");
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (i > 0) {
        doc.append(",\n");
      }
      doc.append(rows_[i]);
    }
    doc.append("]}\n");
    const bool wrote = std::fwrite(doc.data(), 1, doc.size(), file_) == doc.size();
    const bool closed = std::fclose(file_) == 0;
    file_ = nullptr;
    if (!wrote || !closed) {
      std::fprintf(stderr, "error: writing %s failed\n", path_.c_str());
      return false;
    }
    std::printf("JSON written to %s\n", path_.c_str());
    return true;
  }

 private:
  template <typename Fields>
  void RowImpl(const Fields& fields) {
    if (!enabled()) {
      return;
    }
    std::string row = "{";
    bool first = true;
    for (const auto& [key, value] : fields) {
      if (!first) {
        row.push_back(',');
      }
      first = false;
      row.push_back('"');
      row.append(key);
      row.append("\":");
      value.AppendTo(&row);
    }
    row.push_back('}');
    rows_.push_back(std::move(row));
  }

  std::string path_;
  std::string bench_;
  std::vector<std::string> rows_;
  std::FILE* file_ = nullptr;
};

// End-of-run per-tenant census (DESIGN.md §15): one JSON row per registered
// tenant with a canonical key set, so every bench that registers tenants
// reports the same schema. Templated on the registry type (flock::tenant::TenantRegistry)
// to keep this header free of flock includes, mirroring LaneCensus.
template <typename RegistryT>
inline void AppendTenantRows(const RegistryT& registry, double sim_seconds,
                             JsonDump* dump) {
  registry.ForEachTenant([&](auto id, const auto& policy, const auto& c,
                             uint32_t live_connections, uint32_t live_lanes) {
    JsonRow row;
    row.Add("row", "tenant")
        .Add("tenant", static_cast<uint64_t>(id))
        .Add("weight", policy.weight)
        .Add("rpcs", c.rpcs)
        .Add("rpcs_per_sec", sim_seconds > 0 ? c.rpcs / sim_seconds : 0.0)
        .Add("bytes", c.bytes)
        .Add("credit_stalls", c.credit_stalls)
        .Add("quota_stalls", c.quota_stalls)
        .Add("throttle_events", c.throttle_events)
        .Add("throttle_recoveries", c.throttle_recoveries)
        .Add("over_quota_windows", c.over_quota_windows)
        .Add("admission_rejects", c.admission_rejects)
        .Add("admission_degrades", c.admission_degrades)
        .Add("stamp_mismatches", c.stamp_mismatches)
        .Add("live_connections", live_connections)
        .Add("live_lanes", live_lanes);
    dump->Row(row);
  });
}

}  // namespace flock::bench

#endif  // FLOCK_BENCH_BENCH_UTIL_H_
