// The repo benchmark's workloads. Each drives only the public API
// (verbs::Cluster, FlockRuntime, Connection, ControlPlane) and measures it
// from outside: sim-time stamps around the calls, public counters snapshotted
// before and after the measured window.
//
// One repetition ("rep") builds a fresh world, warms it up, measures a fixed
// simulated window, drains every in-flight operation and checks the outputs.
// Simulated results of a rep are a pure function of (workload, seed); host
// times are not, which is why perfbench repeats reps for its host metrics.
#ifndef FLOCK_PERFBENCH_SRC_WORKLOADS_H_
#define FLOCK_PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/metrics.h"
#include "src/common/units.h"

namespace flock::perfbench {

enum class Workload { kFaninRpc, kExtentMix, kConnChurn, kScaleOut };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Named counters read from public accessors. Since() subtracts a snapshot
// taken earlier and records an error for any counter that went backwards or
// does not appear in both snapshots.
class Counters {
 public:
  void Set(const char* name, uint64_t value) { values_.emplace_back(name, value); }
  uint64_t Get(const std::string& name) const;
  Counters Since(const Counters& before, std::vector<std::string>* errors) const;
  const std::vector<std::pair<std::string, uint64_t>>& values() const { return values_; }

 private:
  std::vector<std::pair<std::string, uint64_t>> values_;
};

// One sampled span: an RPC (or a session) and its stage children. Spans of
// one request share `request`; `parent` is an index into the same vector, or
// -1 for a root.
struct Span {
  const char* name = "";
  int node = 0;
  uint64_t request = 0;
  Nanos start = 0;
  Nanos end = 0;
  int64_t parent = -1;
};

constexpr int kSubWindows = 16;

struct RepOptions {
  Workload workload = Workload::kFaninRpc;
  uint64_t seed = 1;
  bool traced = false;
  int shards = 0;          // 0 = the workload's own shard count
  Nanos window = 0;        // 0 = the workload's own measured window
  Nanos warmup = -1;       // <0 = the workload's own warmup
  bool setup_only = false; // build the world, time it, tear it down
};

struct RepResult {
  // Host seconds: whole setup, its cluster/runtime part, its eager-connect
  // part, and the measured window.
  double setup_s = 0;
  double setup_cluster_s = 0;
  double setup_connect_s = 0;
  double window_host_s = 0;
  // Host seconds of each of the window's kSubWindows equal sim-time slices;
  // every rep of a seed replays the same slices.
  std::vector<double> sub_host_s;
  // Host seconds of a fixed calibration loop (a dependent multiply chain on
  // as many threads as the kernel uses, no memory traffic) run before the
  // first slice and after each one: slice k sits between entries k and k+1.
  // It tracks how fast the shared host runs at that moment.
  std::vector<double> sub_cal_s;
  uint64_t window_ops = 0;      // ops of every class completed in the window
  uint64_t window_events = 0;   // kernel events executed in the window

  MetricSet sim;      // deterministic end-to-end simulated metrics
  MetricSet report;   // workload-specific extras (extent, TTFR, failures)
  MetricSet layers;   // per-layer metrics measured from outside
  uint64_t trace_hash = 0;  // device stats + completions, node order
  // trace_hash folded with the end-to-end and report metrics: equal for any
  // two reps of one seed, traced or not, at any shard count.
  uint64_t sim_hash = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // correctness failures; empty = correct
  std::vector<Span> spans;          // traced reps only
};

RepResult RunRep(const RepOptions& options);

// Writes spans as a JSON array; returns false on I/O failure.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans);

}  // namespace flock::perfbench

#endif  // FLOCK_PERFBENCH_SRC_WORKLOADS_H_
