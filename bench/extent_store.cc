// Extent-store workload — the segmentation path under a storage-shaped mix.
//
// A server fronts a flat store of fixed-size extents (default 1 MB). Clients
// run two traffic classes against it over one connection:
//
//   metadata — 128 B lookup RPCs, latency-sensitive (the namespace / inode
//              traffic of a storage front-end).
//   extents  — whole-extent reads and writes, bandwidth-sensitive. Both
//              directions exercise the scatter-gather + segmentation path
//              (DESIGN.md §16): requests gather zero-copy from caller slices,
//              payloads above segment_threshold travel as chunk trains, and
//              responses land directly in caller buffers.
//
// Two configurations per run:
//
//   solo     — metadata threads only: the clean-room metadata p99 baseline.
//   bimodal  — metadata threads plus extent threads on the same lanes: the
//              number that matters is how much the chunk trains inflate the
//              metadata p99. Chunk interleaving (a train releases the lane
//              between chunks) is what keeps the ratio bounded.
//
// The gate table in scripts/check_perf.py judges the JSON dump: extent size
// >= 1 MB, sustained extent bandwidth above a floor, bimodal metadata p99
// <= 2x solo, zero failures. Simulated-time gates: deterministic, host-speed
// independent, exact.
//
// Usage: extent_store [--extent_kb=1024] [--extents=64] [--extent_threads=2]
//                     [--meta_threads=4] [--lanes=4] [--server_cores=4]
//                     [--warmup_ms=2] [--measure_ms=6] [--json=<path>]
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/flock/flock.h"

namespace flock::bench {
namespace {

constexpr uint16_t kMetaRpc = 1;
constexpr uint16_t kReadRpc = 2;   // req [id u64] -> resp [extent bytes]
constexpr uint16_t kWriteRpc = 3;  // req [id u64][extent bytes] -> resp [ok u64]
constexpr uint32_t kMetaBytes = 128;

// Server-side CPU charge for touching `len` payload bytes: a fixed dispatch
// cost plus ~64 GB/s of memcpy. Keeps the bench NIC/wire-bound for extents
// (the paper's regime) while the metadata class stays CPU-cheap.
Nanos TouchCost(uint32_t len) { return 300 + len / 64; }

struct Shared {
  bool measuring = false;
  uint64_t meta_ops = 0;
  uint64_t extent_ops = 0;
  uint64_t extent_bytes = 0;  // payload bytes moved in the measured window
  uint64_t failures = 0;
  Histogram meta_latency;
  Histogram extent_latency;
};

sim::Proc MetaWorker(verbs::Cluster* cluster, Connection* conn,
                     FlockThread* thread, uint64_t seed, Shared* shared) {
  std::vector<uint8_t> req(kMetaBytes);
  std::vector<uint8_t> resp(kMetaBytes);
  for (uint32_t i = 0; i < kMetaBytes; ++i) {
    req[i] = static_cast<uint8_t>(seed + i);
  }
  LatencyRecorder lat(cluster->sim(), &shared->meta_latency);
  for (;;) {
    uint32_t resp_len = 0;
    const Nanos start = lat.Start();
    const bool ok = co_await conn->Call(*thread, kMetaRpc,
                                        PayloadRef(req.data(), kMetaBytes),
                                        resp.data(), kMetaBytes, &resp_len);
    if (shared->measuring) {
      shared->meta_ops += 1;
      shared->failures += ok ? 0 : 1;
      lat.Record(start);
    }
  }
}

sim::Proc ExtentWorker(verbs::Cluster* cluster, Connection* conn,
                       FlockThread* thread, uint32_t extent_bytes,
                       uint64_t num_extents, uint64_t seed, Shared* shared) {
  Rng rng(seed);
  // Caller-owned transfer buffers, hoisted: the whole loop is allocation-free
  // in steady state (AllocTest.SteadyStateExtentsAreAllocationFree).
  std::vector<uint8_t> write_buf(8 + extent_bytes);
  std::vector<uint8_t> read_buf(extent_bytes);
  std::vector<uint8_t> ack(8);
  for (uint32_t i = 0; i < extent_bytes; ++i) {
    write_buf[8 + i] = static_cast<uint8_t>(seed + i);
  }
  LatencyRecorder lat(cluster->sim(), &shared->extent_latency);
  for (;;) {
    const uint64_t id = rng.NextBelow(num_extents);
    const bool is_read = rng.NextBelow(2) == 0;
    uint32_t resp_len = 0;
    const Nanos start = lat.Start();
    bool ok;
    if (is_read) {
      ok = co_await conn->Call(
          *thread, kReadRpc, PayloadRef(reinterpret_cast<const uint8_t*>(&id), 8),
          read_buf.data(), extent_bytes, &resp_len);
    } else {
      // Header and payload as two slices: the id is gathered from this
      // frame, the extent from the hoisted buffer — no concatenation copy.
      std::memcpy(write_buf.data(), &id, 8);
      PayloadRef req;
      req.Add(write_buf.data(), 8);
      req.Add(write_buf.data() + 8, extent_bytes);
      ok = co_await conn->Call(*thread, kWriteRpc, req, ack.data(), 8, &resp_len);
    }
    if (shared->measuring) {
      shared->extent_ops += 1;
      shared->extent_bytes += is_read ? resp_len : extent_bytes;
      shared->failures += ok ? 0 : 1;
      lat.Record(start);
    }
  }
}

struct RunConfig {
  uint32_t extent_bytes = 1024 * 1024;
  uint64_t num_extents = 64;
  int extent_threads = 2;
  int meta_threads = 4;
  uint32_t lanes = 4;
  int server_cores = 4;
  Nanos warmup = 2 * kMillisecond;
  Nanos measure = 6 * kMillisecond;
};

struct RunResult {
  double extent_gbps = 0;  // payload GB/s sustained in the measured window
  uint64_t extent_ops = 0;
  int64_t extent_p50 = 0, extent_p99 = 0;
  double meta_kops = 0;
  int64_t meta_p50 = 0, meta_p99 = 0;
  uint64_t failures = 0;
};

RunResult Run(const RunConfig& rc, bool with_extents) {
  // Per-packet QP arbitration on the wire: without it a 1 MB chunk train
  // holds the whole-message FIFO link for its full serialization and every
  // metadata RPC behind it eats the burst in its tail.
  sim::CostModel cost;
  cost.link_arb_quantum_bytes = cost.mtu_bytes;
  verbs::Cluster cluster(verbs::Cluster::Config{
      .num_nodes = 2, .cores_per_node = 32, .cost = cost});

  FlockConfig config;
  config.max_payload = 8 + rc.extent_bytes;  // write req = [id][extent]
  config.segment_threshold = 8 * 1024;
  FlockRuntime server(cluster, 0, config);

  // The extent store: flat backing memory, deterministic initial contents.
  std::vector<uint8_t> store(rc.num_extents * rc.extent_bytes);
  for (size_t i = 0; i < store.size(); ++i) {
    store[i] = static_cast<uint8_t>(i * 2654435761u >> 24);
  }
  server.RegisterHandler(kMetaRpc, [](const uint8_t* req, uint32_t len,
                                      uint8_t* resp, uint32_t, Nanos* cpu) {
    std::memcpy(resp, req, len);
    *cpu = TouchCost(len);
    return len;
  });
  const uint32_t extent_bytes = rc.extent_bytes;
  const uint64_t num_extents = rc.num_extents;
  server.RegisterHandler(
      kReadRpc, [&store, extent_bytes, num_extents](
                    const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t,
                    Nanos* cpu) -> uint32_t {
        uint64_t id = 0;
        std::memcpy(&id, req, 8);
        FLOCK_CHECK_LT(id, num_extents);
        std::memcpy(resp, store.data() + id * extent_bytes, extent_bytes);
        *cpu = TouchCost(extent_bytes);
        return extent_bytes;
      });
  server.RegisterHandler(
      kWriteRpc, [&store, extent_bytes, num_extents](
                     const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t,
                     Nanos* cpu) -> uint32_t {
        uint64_t id = 0;
        std::memcpy(&id, req, 8);
        FLOCK_CHECK_LT(id, num_extents);
        FLOCK_CHECK_EQ(len, 8 + extent_bytes);
        std::memcpy(store.data() + id * extent_bytes, req + 8, extent_bytes);
        *cpu = TouchCost(extent_bytes);
        const uint64_t ok = 1;
        std::memcpy(resp, &ok, 8);
        return 8;
      });
  server.StartServer(rc.server_cores);

  FlockRuntime client(cluster, 1, config);
  client.StartClient();
  Connection* conn = client.Connect(server, rc.lanes);

  Shared shared;
  uint64_t seed = 0x9e3779b97f4a7c15ULL ^ rc.extent_bytes;
  int next_thread = 0;
  for (int t = 0; t < rc.meta_threads; ++t) {
    cluster.sim().Spawn(MetaWorker(&cluster, conn,
                                   client.CreateThread(next_thread++),
                                   SplitMix64(seed), &shared));
  }
  if (with_extents) {
    for (int t = 0; t < rc.extent_threads; ++t) {
      cluster.sim().Spawn(ExtentWorker(
          &cluster, conn, client.CreateThread(next_thread++), rc.extent_bytes,
          rc.num_extents, SplitMix64(seed), &shared));
    }
  }

  cluster.sim().RunFor(rc.warmup);
  shared.measuring = true;
  cluster.sim().RunFor(rc.measure);
  shared.measuring = false;

  const double seconds = static_cast<double>(rc.measure) / 1e9;
  RunResult r;
  r.extent_gbps = static_cast<double>(shared.extent_bytes) / seconds / 1e9;
  r.extent_ops = shared.extent_ops;
  r.extent_p50 = shared.extent_latency.Median();
  r.extent_p99 = shared.extent_latency.P99();
  r.meta_kops = static_cast<double>(shared.meta_ops) / seconds / 1e3;
  r.meta_p50 = shared.meta_latency.Median();
  r.meta_p99 = shared.meta_latency.P99();
  r.failures = shared.failures;
  return r;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "extent_store");
  RunConfig rc;
  rc.extent_bytes =
      static_cast<uint32_t>(flags.Int("extent_kb", 1024)) * 1024u;
  rc.num_extents = static_cast<uint64_t>(flags.Int("extents", 64));
  rc.extent_threads = static_cast<int>(flags.Int("extent_threads", 2));
  rc.meta_threads = static_cast<int>(flags.Int("meta_threads", 4));
  rc.lanes = static_cast<uint32_t>(flags.Int("lanes", 4));
  rc.server_cores = static_cast<int>(flags.Int("server_cores", 4));
  rc.warmup = flags.Int("warmup_ms", 2) * flock::kMillisecond;
  rc.measure = flags.Int("measure_ms", 6) * flock::kMillisecond;
  flags.Finish();

  PrintBanner("Extent store: solo metadata baseline");
  const RunResult solo = Run(rc, /*with_extents=*/false);
  std::printf("meta: %.1f kops, p50 %.1f us, p99 %.1f us (%llu failures)\n",
              solo.meta_kops, solo.meta_p50 / 1e3, solo.meta_p99 / 1e3,
              static_cast<unsigned long long>(solo.failures));
  json.Row({{"config", "solo"}, {"meta_kops", solo.meta_kops},
            {"meta_p50_ns", solo.meta_p50}, {"meta_p99_ns", solo.meta_p99},
            {"failures", solo.failures}});

  PrintBanner("Extent store: bimodal (metadata + extents)");
  const RunResult bi = Run(rc, /*with_extents=*/true);
  const double p99_ratio =
      solo.meta_p99 > 0 ? static_cast<double>(bi.meta_p99) / solo.meta_p99 : 0;
  std::printf("extents: %u KB x %llu ops, %.2f GB/s, p50 %.1f us, p99 %.1f us\n",
              rc.extent_bytes / 1024,
              static_cast<unsigned long long>(bi.extent_ops), bi.extent_gbps,
              bi.extent_p50 / 1e3, bi.extent_p99 / 1e3);
  std::printf("meta:    %.1f kops, p50 %.1f us, p99 %.1f us (%.2fx solo p99, "
              "%llu failures)\n",
              bi.meta_kops, bi.meta_p50 / 1e3, bi.meta_p99 / 1e3, p99_ratio,
              static_cast<unsigned long long>(bi.failures));
  json.Row({{"config", "bimodal"}, {"extent_kb", rc.extent_bytes / 1024},
            {"extent_ops", bi.extent_ops}, {"extent_gbps", bi.extent_gbps},
            {"extent_p50_ns", bi.extent_p50}, {"extent_p99_ns", bi.extent_p99},
            {"meta_kops", bi.meta_kops}, {"meta_p50_ns", bi.meta_p50},
            {"meta_p99_ns", bi.meta_p99}, {"meta_p99_ratio", p99_ratio},
            {"failures", bi.failures}});

  std::printf("\nbimodal metadata p99 is %.2fx solo (gate: <= 2x); extent "
              "bandwidth %.2f GB/s\n", p99_ratio, bi.extent_gbps);
  return 0;
}
