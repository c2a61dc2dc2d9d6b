// Fault-recovery bench: kill one of the client's lanes mid-run and measure
// how much steady-state throughput survives, and how long the handle takes
// to climb back to fault-free throughput once the control plane reconnects
// the lane.
//
// Two runs share every parameter except the fault. The baseline run is
// fault-free; the faulted run kills one client-side lane QP at 1/4 of the
// simulated span. Both runs record completions in fixed sim-time buckets:
//   * recovery        — completions inside the final quarter of the span
//                       (long after the kill) as a fraction of baseline,
//                       isolating the steady-state cost of the fault;
//   * recovery_time_ns — sim-ns from the kill until the first bucket whose
//                       completion count is back within 1% of the baseline's
//                       same bucket (-1 if throughput never recovers).
// The lane is re-established through the control plane (fresh QP pair, ring
// resync, replay), so steady state runs at full lane count and
// scripts/check_perf.py gates recovery at >= 99%.
//
// Usage:
//   fault_recovery [--threads=16] [--lanes=8] [--payload=64] [--sim-ms=20]
//                  [--timeout-us=200] [--buckets=0] [--json=<path>]
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/flock/flock.h"

namespace flock::bench {
namespace {

// Sim-time buckets per run; the kill lands exactly on the bucket-10 boundary
// (span/4) so bucketed baseline/faulted comparisons line up.
constexpr int kBuckets = 40;

struct RecoveryResult {
  uint64_t ok = 0;            // RPCs completed successfully over the full run
  uint64_t fail = 0;          // RPCs surfaced as ok=false
  uint64_t window_rpcs = 0;   // completions inside the final-quarter window
  uint64_t retries = 0;
  uint64_t failed_rpcs = 0;
  uint64_t spurious = 0;
  uint64_t client_lane_failures = 0;
  uint64_t server_lane_failures = 0;
  // Control-plane outcome (end-of-run lane census + revival counts).
  LaneCensus lanes;
  uint64_t buckets[kBuckets] = {};  // completions per sim-time bucket
};

sim::Proc EchoWorker(Connection* conn, FlockThread* thread, uint32_t payload_bytes,
                     uint64_t* ok, uint64_t* fail) {
  std::vector<uint8_t> payload(payload_bytes, 0x5a);
  std::vector<uint8_t> resp;
  for (;;) {
    if (co_await conn->Call(*thread, 1, payload.data(), payload_bytes, &resp)) {
      (*ok)++;
    } else {
      (*fail)++;
    }
  }
}

RecoveryResult RunOnce(bool inject, int threads, uint32_t lanes, uint32_t payload_bytes,
                       Nanos sim_span, Nanos rpc_timeout) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = 2,
                                                .cores_per_node = 34});
  FlockConfig server_cfg;
  FlockRuntime server(cluster, 0, server_cfg);
  server.RegisterHandler(1, [](const uint8_t* req, uint32_t req_len, uint8_t* resp,
                               uint32_t, Nanos* cpu) -> uint32_t {
    *cpu = 50;
    std::memcpy(resp, req, req_len);
    return req_len;
  });
  server.StartServer(4);

  FlockConfig client_cfg;
  client_cfg.rpc_timeout = rpc_timeout;
  // Two response dispatchers so the client is not the saturated resource:
  // with a single dispatcher at this thread count, the measurement is of the
  // client's CPU ceiling (a revived lane re-enters phase-shifted from the
  // others, costing the shared dispatcher an extra probe pass per cycle —
  // a ~5% tax that would mask the recovery this bench is actually gating).
  client_cfg.response_dispatchers = 2;
  FlockRuntime client(cluster, 1, client_cfg);
  client.StartClient();
  Connection* conn = client.Connect(server, lanes);

  RecoveryResult r;
  for (int t = 0; t < threads; ++t) {
    cluster.sim().Spawn(
        EchoWorker(conn, client.CreateThread(t), payload_bytes, &r.ok, &r.fail));
  }
  if (inject) {
    cluster.fault().KillQpAt(sim_span / 4, /*node=*/1, conn->lane(0).qp->qpn());
  }

  uint64_t last = 0;
  for (int b = 0; b < kBuckets; ++b) {
    cluster.sim().RunFor(sim_span / kBuckets);
    const uint64_t now = r.ok + r.fail;
    r.buckets[b] = now - last;
    last = now;
  }

  for (int b = kBuckets - kBuckets / 4; b < kBuckets; ++b) {
    r.window_rpcs += r.buckets[b];
  }
  r.retries = client.client_stats().retries;
  r.failed_rpcs = client.client_stats().failed_rpcs;
  r.spurious = client.client_stats().spurious_responses;
  r.client_lane_failures = client.client_stats().lane_failures;
  r.server_lane_failures = server.server_stats().lane_failures;
  r.lanes.Add(*conn);
  return r;
}

// Sim-ns from the kill until faulted per-bucket throughput is back within 1%
// of the baseline's matching bucket; -1 if it never gets there.
int64_t RecoveryTimeNs(const RecoveryResult& base, const RecoveryResult& faulted,
                       Nanos sim_span) {
  const Nanos bucket_ns = sim_span / kBuckets;
  const Nanos kill_ns = sim_span / 4;
  const int kill_bucket = static_cast<int>(kill_ns / bucket_ns);
  for (int b = kill_bucket; b < kBuckets; ++b) {
    const double target = 0.99 * static_cast<double>(base.buckets[b]);
    if (base.buckets[b] > 0 && static_cast<double>(faulted.buckets[b]) >= target) {
      return static_cast<int64_t>((b + 1) * bucket_ns - kill_ns);
    }
  }
  return -1;
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const int threads = static_cast<int>(flags.Int("threads", 16));
  const uint32_t lanes = static_cast<uint32_t>(flags.Int("lanes", 8));
  const uint32_t payload = static_cast<uint32_t>(flags.Int("payload", 64));
  const Nanos sim_span = flags.Int("sim-ms", 20) * kMillisecond;
  const Nanos timeout = flags.Int("timeout-us", 200) * kMicrosecond;
  const bool print_buckets = flags.Int("buckets", 0) != 0;
  JsonDump json(flags, "fault_recovery");
  flags.Finish();

  PrintBanner("fault_recovery: kill 1 lane mid-run, reconnect via control plane");
  const RecoveryResult base = RunOnce(false, threads, lanes, payload, sim_span, timeout);
  const RecoveryResult faulted =
      RunOnce(true, threads, lanes, payload, sim_span, timeout);

  const double recovery = base.window_rpcs == 0
                              ? 0.0
                              : static_cast<double>(faulted.window_rpcs) /
                                    static_cast<double>(base.window_rpcs);
  const int64_t recovery_ns = RecoveryTimeNs(base, faulted, sim_span);
  if (print_buckets) {
    for (int b = 0; b < kBuckets; ++b) {
      std::printf("bucket %2d: base %6lu faulted %6lu (%.3f)\n", b,
                  static_cast<unsigned long>(base.buckets[b]),
                  static_cast<unsigned long>(faulted.buckets[b]),
                  base.buckets[b] == 0
                      ? 0.0
                      : static_cast<double>(faulted.buckets[b]) /
                            static_cast<double>(base.buckets[b]));
    }
  }
  std::printf("%-10s %12s %10s %10s %10s %10s %10s\n", "run", "window", "ok",
              "fail", "retries", "lane_f", "spurious");
  std::printf("%-10s %12lu %10lu %10lu %10lu %10lu %10lu\n", "baseline",
              static_cast<unsigned long>(base.window_rpcs),
              static_cast<unsigned long>(base.ok),
              static_cast<unsigned long>(base.fail),
              static_cast<unsigned long>(base.retries),
              static_cast<unsigned long>(base.client_lane_failures),
              static_cast<unsigned long>(base.spurious));
  std::printf("%-10s %12lu %10lu %10lu %10lu %10lu %10lu\n", "faulted",
              static_cast<unsigned long>(faulted.window_rpcs),
              static_cast<unsigned long>(faulted.ok),
              static_cast<unsigned long>(faulted.fail),
              static_cast<unsigned long>(faulted.retries),
              static_cast<unsigned long>(faulted.client_lane_failures),
              static_cast<unsigned long>(faulted.spurious));
  std::printf("recovery: %.1f%% of fault-free window throughput\n",
              recovery * 100.0);
  if (recovery_ns >= 0) {
    std::printf("recovery time: %.1f us from kill to within 1%% of baseline\n",
                static_cast<double>(recovery_ns) / 1e3);
  } else {
    std::printf("recovery time: never reached 99%% of baseline\n");
  }
  std::printf("lanes at end: %lu healthy, %lu quarantined, %lu reconnecting, "
              "%lu retired; %lu reconnects\n",
              static_cast<unsigned long>(faulted.lanes.healthy),
              static_cast<unsigned long>(faulted.lanes.quarantined),
              static_cast<unsigned long>(faulted.lanes.reconnecting),
              static_cast<unsigned long>(faulted.lanes.retired),
              static_cast<unsigned long>(faulted.lanes.reconnects));
  std::printf("CSV,fault_recovery,baseline,%lu,%lu,%lu,%lu\n",
              static_cast<unsigned long>(base.window_rpcs),
              static_cast<unsigned long>(base.ok),
              static_cast<unsigned long>(base.fail),
              static_cast<unsigned long>(base.retries));

  JsonRow row;
  row.Add("threads", threads)
      .Add("lanes", lanes)
      .Add("payload_bytes", payload)
      .Add("sim_ms", static_cast<int64_t>(sim_span / kMillisecond))
      .Add("timeout_us", static_cast<int64_t>(timeout / kMicrosecond))
      .Add("baseline_fail", base.fail)
      .Add("baseline_retries", base.retries)
      .Add("baseline_client_lane_failures", base.client_lane_failures)
      .Add("baseline_window_rpcs", base.window_rpcs)
      .Add("faulted_window_rpcs", faulted.window_rpcs)
      .Add("recovery", recovery)
      .Add("recovery_time_ns", recovery_ns)
      .Add("faulted_ok", faulted.ok)
      .Add("faulted_fail", faulted.fail)
      .Add("retries", faulted.retries)
      .Add("failed_rpcs", faulted.failed_rpcs)
      .Add("spurious_responses", faulted.spurious)
      .Add("client_lane_failures", faulted.client_lane_failures)
      .Add("server_lane_failures", faulted.server_lane_failures);
  faulted.lanes.AppendTo(&row, /*include_retired=*/true);
  json.Row(row);

  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
