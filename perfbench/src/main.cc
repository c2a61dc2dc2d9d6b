// perfbench: runs one workload of the repo benchmark and prints every metric.
//
//   perfbench --workload <fanin_rpc|extent_mix|conn_churn|scale_out>
//             --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]
//
// The process repeats the workload ("reps": fresh world, warmup, fixed
// simulated window, drain, checks) until the measured windows add up to
// --seconds of host time, then reports:
//   * simulated metrics of the first rep, after checking every later rep
//     reproduced them bit for bit;
//   * host metrics over reps: window throughput normalized by a calibration
//     loop timed between the window's slices (the raw median throughput is
//     in the report), median setup time, and the process's peak RSS;
//   * with --trace 1, one extra traced rep whose per-layer metrics are
//     measured from outside, checked against the untraced reps (and, for
//     scale_out, one single-shard rep checked against the sharded ones).
// The last stdout line is one JSON object; human-readable lines precede it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/src/workloads.h"

namespace flock::perfbench {
namespace {

constexpr int kMinReps = 3;
constexpr int kMaxReps = 64;
constexpr int kMinSetups = 11;
// Stop starting reps after this much wall time, whatever --seconds says, so
// one invocation stays well inside a 180 s budget.
constexpr double kMaxWallS = 100;

constexpr const char* kUsage =
    "usage: perfbench --workload <fanin_rpc|extent_mix|conn_churn|scale_out>\n"
    "                 --seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]\n";

struct Cli {
  Workload workload = Workload::kFaninRpc;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string spans_out;
};

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      s.size() > 19) {
    return false;
  }
  *out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

// Strict parser: every flag is known, takes a value ("--k v" or "--k=v") and
// appears once; the required ones must all be present.
bool ParseCli(int argc, char** argv, Cli* cli, std::string* error) {
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  std::vector<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument: " + arg;
      return false;
    }
    std::string key = arg.substr(2), value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      *error = "missing value for --" + key;
      return false;
    }
    for (const std::string& s : seen) {
      if (s == key) {
        *error = "duplicate flag --" + key;
        return false;
      }
    }
    seen.push_back(key);
    uint64_t n = 0;
    if (key == "workload") {
      have_workload = ParseWorkload(value, &cli->workload);
      if (!have_workload) {
        *error = "unknown workload: " + value;
        return false;
      }
    } else if (key == "seed") {
      have_seed = ParseU64(value, &cli->seed);
      if (!have_seed) {
        *error = "--seed takes a non-negative integer";
        return false;
      }
    } else if (key == "seconds") {
      have_seconds = ParseU64(value, &n) && n >= 1 && n <= 600;
      cli->seconds = static_cast<double>(n);
      if (!have_seconds) {
        *error = "--seconds takes an integer in [1, 600]";
        return false;
      }
    } else if (key == "trace") {
      have_trace = value == "0" || value == "1";
      cli->trace = value == "1";
      if (!have_trace) {
        *error = "--trace takes 0 or 1";
        return false;
      }
    } else if (key == "spans-out") {
      cli->spans_out = value;
      if (value.empty()) {
        *error = "--spans-out takes a path";
        return false;
      }
    } else {
      *error = "unknown flag --" + key;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    *error = "--workload, --seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

double Elapsed(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - since).count();
}

double HostKrps(const RepResult& r) {
  return Ratio(static_cast<double>(r.window_ops), r.window_host_s) / 1e3;
}

// Calibration time on the reference host (4-vCPU Xeon VM, quiet), used to
// express normalized window time back in host seconds.
constexpr double kCalibrationRefS = 1.07e-3;

// Host seconds of the window at the reference host's speed. Each slice's host
// time is divided by the calibration loop timed around it (same host, same
// moment, a fixed amount of work); per slice the lower quartile over reps is
// kept, and the slices are summed and scaled by kCalibrationRefS. Every rep of
// a seed replays the same simulated slices, so the reps are true repeats, and
// a disturbance from the rest of the host only ever adds time (on the sharded
// kernel, one disturbed worker stalls every barrier). The lower quartile
// ignores those without resting on one lucky slice; over ten runs it spread
// least of min, lower quartile and median across the four workloads.
double NormalizedWindowSeconds(const std::vector<RepResult>& reps) {
  double total = 0;
  for (size_t k = 0; k < reps.front().sub_host_s.size(); ++k) {
    std::vector<double> slice;
    for (const RepResult& r : reps) {
      slice.push_back(r.sub_host_s[k] / ((r.sub_cal_s[k] + r.sub_cal_s[k + 1]) / 2));
    }
    std::sort(slice.begin(), slice.end());
    total += slice[(slice.size() - 1) / 4];
  }
  return total * kCalibrationRefS;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

void PrintSet(const char* title, const MetricSet& set) {
  std::printf("%s\n", title);
  for (const Metric& m : set.metrics()) {
    if (m.samples > 0) {
      std::printf("  %-32s %14.6g %-10s (n=%" PRIu64 ")\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
}

int Main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::printf("%s", kUsage);
      return 0;
    }
  }
  Cli cli;
  std::string error;
  if (!ParseCli(argc, argv, &cli, &error)) {
    std::fprintf(stderr, "perfbench: %s\n%s", error.c_str(), kUsage);
    return 2;
  }
  // Every world is built the way the first one in a fresh process is: blocks
  // of 1 MB and up (the simulated hosts' 4 MB memory chunks) are mmapped and
  // returned on free. Left to itself glibc raises this threshold after the
  // first free, so later setups reuse warm heap pages and setup_s would mix
  // cold and warm builds in proportions that vary from run to run.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::string> errors;
  uint64_t attempted = 0, failed = 0;
  auto absorb = [&](const RepResult& r, const char* label) {
    attempted += r.attempted;
    failed += r.failed;
    for (const std::string& e : r.errors) {
      errors.push_back(std::string(label) + ": " + e);
    }
  };

  // ---- untraced reps: simulated metrics once, host metrics over reps ----
  RepOptions options;
  options.workload = cli.workload;
  options.seed = cli.seed;
  std::vector<RepResult> reps;
  std::vector<double> krps, window_s, setup_s, cluster_s, connect_s;
  double measured = 0;
  while (static_cast<int>(reps.size()) < kMaxReps &&
         (static_cast<int>(reps.size()) < kMinReps ||
          (measured < cli.seconds && Elapsed(start) < kMaxWallS))) {
    RepResult r = RunRep(options);
    absorb(r, "rep");
    if (!reps.empty() && r.sim_hash != reps.front().sim_hash) {
      errors.push_back("rep " + std::to_string(reps.size()) +
                       " is not bit-identical to rep 0 (simulated metrics differ)");
    }
    measured += r.window_host_s;
    std::fprintf(stderr, "rep %zu: window %.3f s host, %.1f krps, setup %.4f s\n",
                 reps.size(), r.window_host_s, HostKrps(r), r.setup_s);
    krps.push_back(HostKrps(r));
    window_s.push_back(r.window_host_s);
    setup_s.push_back(r.setup_s);
    cluster_s.push_back(r.setup_cluster_s);
    connect_s.push_back(r.setup_connect_s);
    r.spans.clear();
    reps.push_back(std::move(r));
  }
  RepOptions setup_options = options;
  setup_options.setup_only = true;
  while (setup_s.size() < static_cast<size_t>(kMinSetups)) {
    const RepResult r = RunRep(setup_options);
    setup_s.push_back(r.setup_s);
    cluster_s.push_back(r.setup_cluster_s);
    connect_s.push_back(r.setup_connect_s);
  }
  const RepResult& first = reps.front();
  const double window_ref_s = NormalizedWindowSeconds(reps);

  // ---- traced rep: per-layer metrics, identity checks ----
  MetricSet layers;
  if (cli.trace) {
    RepOptions traced_options = options;
    traced_options.traced = true;
    RepResult traced = RunRep(traced_options);
    absorb(traced, "traced rep");
    if (traced.sim_hash != first.sim_hash) {
      errors.push_back("traced rep is not bit-identical to the untraced reps");
    }
    double shard_speedup = 1.0;  // sequential-kernel workloads: no sharding
    if (cli.workload == Workload::kScaleOut) {
      RepOptions one_shard = options;
      one_shard.shards = 1;
      const RepResult single = RunRep(one_shard);
      absorb(single, "1-shard rep");
      if (single.sim_hash != first.sim_hash) {
        errors.push_back("1-shard rep is not bit-identical to the sharded reps");
      }
      shard_speedup = Ratio(Median(krps), HostKrps(single));
    }
    layers = traced.layers;
    layers.Add("sim.events_per_host_us",
               Ratio(static_cast<double>(first.window_events), window_ref_s * 1e6),
               "events/us");
    layers.Add("sim.shard_speedup", shard_speedup, "ratio");
    layers.Add("setup.cluster_s", Median(cluster_s), "s");
    layers.Add("setup.connect_s", Median(connect_s), "s");
    layers.Add("trace.overhead_frac", Ratio(traced.window_host_s, Median(window_s)) - 1,
               "ratio");
    if (!cli.spans_out.empty() && !WriteSpans(cli.spans_out, traced.spans)) {
      errors.push_back("cannot write spans to " + cli.spans_out);
    }
    const Metric* server_util = layers.Find("cpu.server_util");
    if (server_util != nullptr && server_util->value > 1.0) {
      std::printf("flag: cpu.server_util %.4f > 1.0 (busy time counted past the "
                  "window end)\n", server_util->value);
    }
  }

  // ---- host metrics ----
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  MetricSet e2e;
  for (const Metric& m : first.sim.metrics()) {
    e2e.Add(m.name, m.value, m.unit, m.samples);
  }
  e2e.Add("host_krps", Ratio(static_cast<double>(first.window_ops), window_ref_s) / 1e3,
          "krps", reps.size());
  e2e.Add("setup_s", Median(setup_s), "s", setup_s.size());
  e2e.Add("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");

  std::printf("perfbench %s seed=%" PRIu64 " reps=%zu measured=%.2fs wall=%.2fs\n",
              WorkloadName(cli.workload), cli.seed, reps.size(), measured,
              Elapsed(start));
  std::printf("trace_hash %s sim_hash %s\n", Hex(first.trace_hash).c_str(),
              Hex(first.sim_hash).c_str());
  PrintSet("end to end", e2e);
  MetricSet report = first.report;
  report.Add("host_krps_raw", Median(krps), "krps", reps.size());
  std::vector<double> cal;
  for (const RepResult& r : reps) {
    cal.insert(cal.end(), r.sub_cal_s.begin(), r.sub_cal_s.end());
  }
  report.Add("host_calibration_ms", Median(cal) * 1e3, "ms", cal.size());
  PrintSet("workload report", report);
  if (cli.trace) {
    PrintSet("per layer (traced rep)", layers);
  }
  for (const std::string& e : errors) {
    std::printf("ERROR: %s\n", e.c_str());
  }

  std::string errors_json = "[";
  for (size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) {
      errors_json += ",";
    }
    errors_json += JsonString(errors[i]);
  }
  errors_json += "]";
  std::printf(
      "{\"workload\":\"%s\",\"seed\":%" PRIu64 ",\"correct\":%s,\"attempted\":%" PRIu64
      ",\"failed\":%" PRIu64 ",\"reps\":%zu,\"trace_hash\":\"%s\",\"sim_hash\":\"%s\","
      "\"errors\":%s,\"end_to_end\":%s,\"report\":%s,\"per_layer\":%s}\n",
      WorkloadName(cli.workload), cli.seed, errors.empty() ? "true" : "false", attempted,
      failed, reps.size(), Hex(first.trace_hash).c_str(), Hex(first.sim_hash).c_str(),
      errors_json.c_str(), e2e.ToJson().c_str(), report.ToJson().c_str(),
      layers.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace flock::perfbench

int main(int argc, char** argv) { return flock::perfbench::Main(argc, argv); }
