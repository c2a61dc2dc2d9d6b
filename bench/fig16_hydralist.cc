// Figures 16, 17, 18 — HydraList served over Flock vs eRPC (§8.6).
//
// A single-node ordered index; 22 client nodes issue 90% get and 10%
// scan(64) with {1,4,8} outstanding requests per thread. Paper result:
// comparable at low thread counts; at 32 threads Flock is ~1.4x with lower
// median and p99 for both gets and scans.
//
// The index is scaled down from 32M to 4M keys (lookup cost is O(log n); the
// two-hop difference is noted in EXPERIMENTS.md). One shared read-only index
// serves every configuration.
//
// Usage: fig16_hydralist [--measure_ms=2] [--warmup_ms=1] [--keys=4000000]
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "bench/rpc_bench_lib.h"
#include "src/baselines/udrpc.h"
#include "src/common/histogram.h"
#include "src/flock/flock.h"
#include "src/index/hydralist.h"
#include "src/index/remote_mirror.h"

namespace flock::bench {
namespace {

constexpr uint16_t kGetRpc = 1;
constexpr uint16_t kScanRpc = 2;
constexpr uint32_t kScanRange = 64;

struct GetReq {
  uint64_t key;
};
struct ScanReq {
  uint64_t start;
  uint32_t count;
};

struct IndexShared {
  bool measuring = false;
  uint64_t gets = 0;
  uint64_t scans = 0;
  Histogram get_latency;
  Histogram scan_latency;
};

RpcHandler MakeGetHandler(const index::HydraList* list) {
  return [list](const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t cap,
                Nanos* cpu) -> uint32_t {
    GetReq get;
    std::memcpy(&get, req, sizeof(get));
    uint64_t value = 0;
    *cpu = 0;
    list->Get(get.key, &value, cpu);
    std::memcpy(resp, &value, 8);
    return 8;
  };
}

RpcHandler MakeScanHandler(const index::HydraList* list) {
  return [list](const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t cap,
                Nanos* cpu) -> uint32_t {
    ScanReq scan;
    std::memcpy(&scan, req, sizeof(scan));
    uint64_t digest = 0;
    *cpu = 0;
    const uint64_t found = list->Scan(scan.start, scan.count, &digest, cpu);
    std::memcpy(resp, &found, 8);  // the paper's scan replies with the count
    return 8;
  };
}

// 90% get / 10% scan over uniform keys. Returns true if the op was a get.
bool NextOp(Rng& rng, uint64_t keys, uint16_t* rpc, uint8_t* buf, uint32_t* len) {
  if (rng.NextBelow(10) != 0) {
    GetReq get{rng.NextBelow(keys)};
    std::memcpy(buf, &get, sizeof(get));
    *len = sizeof(get);
    *rpc = kGetRpc;
    return true;
  }
  ScanReq scan{rng.NextBelow(keys), kScanRange};
  std::memcpy(buf, &scan, sizeof(scan));
  *len = sizeof(scan);
  *rpc = kScanRpc;
  return false;
}

sim::Proc FlockIndexWorker(verbs::Cluster* cluster, Connection* conn,
                           FlockThread* thread, uint64_t keys, int outstanding,
                           uint64_t seed, IndexShared* shared) {
  Rng rng(seed);
  std::vector<PendingRpc*> batch(static_cast<size_t>(outstanding));
  std::vector<bool> is_get(static_cast<size_t>(outstanding));
  uint8_t buf[16];
  for (;;) {
    for (int i = 0; i < outstanding; ++i) {
      uint16_t rpc = 0;
      uint32_t len = 0;
      is_get[static_cast<size_t>(i)] = NextOp(rng, keys, &rpc, buf, &len);
      batch[static_cast<size_t>(i)] = co_await conn->SendRpc(*thread, rpc, buf, len);
    }
    for (int i = 0; i < outstanding; ++i) {
      PendingRpc* rpc = batch[static_cast<size_t>(i)];
      co_await conn->AwaitResponse(*thread, rpc);
      if (shared->measuring) {
        const Nanos lat = rpc->completed_at - rpc->submitted_at;
        if (is_get[static_cast<size_t>(i)]) {
          shared->gets += 1;
          shared->get_latency.Record(lat);
        } else {
          shared->scans += 1;
          shared->scan_latency.Record(lat);
        }
      }
      conn->FreeRpc(rpc);
    }
  }
}

sim::Proc UdIndexWorker(verbs::Cluster* cluster, baselines::UdRpcClient::Thread* thread,
                        baselines::UdEndpoint server, uint64_t keys, int outstanding,
                        uint64_t seed, IndexShared* shared) {
  Rng rng(seed);
  std::vector<baselines::UdRpcClient::Pending*> batch(
      static_cast<size_t>(outstanding));
  std::vector<bool> is_get(static_cast<size_t>(outstanding));
  uint8_t buf[16];
  for (;;) {
    for (int i = 0; i < outstanding; ++i) {
      uint16_t rpc = 0;
      uint32_t len = 0;
      is_get[static_cast<size_t>(i)] = NextOp(rng, keys, &rpc, buf, &len);
      batch[static_cast<size_t>(i)] = co_await thread->Send(server, rpc, buf, len);
    }
    for (int i = 0; i < outstanding; ++i) {
      auto* pending = batch[static_cast<size_t>(i)];
      const bool ok = co_await thread->Await(pending, 2 * kMillisecond);
      if (shared->measuring && ok) {
        const Nanos lat = pending->completed_at - pending->submitted_at;
        if (is_get[static_cast<size_t>(i)]) {
          shared->gets += 1;
          shared->get_latency.Record(lat);
        } else {
          shared->scans += 1;
          shared->scan_latency.Record(lat);
        }
      }
      delete pending;
    }
  }
}

struct IndexResult {
  double mops = 0;
  int64_t get_p50 = 0, get_p99 = 0;
  int64_t scan_p50 = 0, scan_p99 = 0;
};

IndexResult RunFlockIndex(const index::HydraList* list, uint64_t keys, int threads,
                          int outstanding, Nanos warmup, Nanos measure) {
  constexpr int kClients = 22;
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 1 + kClients, .cores_per_node = 32});
  FlockConfig config;
  FlockRuntime server(cluster, 0, config);
  server.RegisterHandler(kGetRpc, MakeGetHandler(list));
  server.RegisterHandler(kScanRpc, MakeScanHandler(list));
  server.StartServer(31);

  IndexShared shared;
  FlockConfig client_config;
  client_config.response_dispatchers = threads >= 32 ? 2 : 1;
  std::vector<std::unique_ptr<FlockRuntime>> clients;
  uint64_t seed = 0x94d049bb133111ebULL;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<FlockRuntime>(cluster, 1 + c, client_config));
    clients.back()->StartClient();
    Connection* conn =
        clients.back()->Connect(server, static_cast<uint32_t>(threads));
    for (int t = 0; t < threads; ++t) {
      cluster.sim().Spawn(FlockIndexWorker(&cluster, conn,
                                           clients.back()->CreateThread(t % 30), keys,
                                           outstanding, SplitMix64(seed), &shared));
    }
  }
  cluster.sim().RunFor(warmup);
  shared.measuring = true;
  cluster.sim().RunFor(measure);
  shared.measuring = false;

  IndexResult result;
  result.mops = static_cast<double>(shared.gets + shared.scans) /
                (static_cast<double>(measure) / 1e9) / 1e6;
  result.get_p50 = shared.get_latency.Median();
  result.get_p99 = shared.get_latency.P99();
  result.scan_p50 = shared.scan_latency.Median();
  result.scan_p99 = shared.scan_latency.P99();
  return result;
}

// One-sided gets against the published mirror (scans stay RPC — they need
// the server-side index walk). Gets that come back stale/absent fall back to
// the authoritative RPC; the recorded latency covers the whole composite.
sim::Proc OneSidedIndexWorker(verbs::Cluster* cluster, Connection* conn,
                              FlockThread* thread, index::MirrorReader* reader,
                              uint64_t keys, uint64_t seed, IndexShared* shared) {
  Rng rng(seed);
  uint8_t buf[16];
  LatencyRecorder get_lat(cluster->sim(), &shared->get_latency);
  for (;;) {
    uint16_t rpc = 0;
    uint32_t len = 0;
    const bool is_get = NextOp(rng, keys, &rpc, buf, &len);
    if (is_get) {
      GetReq get;
      std::memcpy(&get, buf, sizeof(get));
      const Nanos start = get_lat.Start();
      uint64_t value = 0;
      const index::MirrorReader::Outcome out =
          co_await reader->Get(*thread, get.key, &value);
      if (out != index::MirrorReader::Outcome::kOk) {
        PendingRpc* pending = co_await conn->SendRpc(*thread, kGetRpc, buf, len);
        co_await conn->AwaitResponse(*thread, pending);
        conn->FreeRpc(pending);
      }
      if (shared->measuring) {
        shared->gets += 1;
        get_lat.Record(start);
      }
    } else {
      PendingRpc* pending = co_await conn->SendRpc(*thread, rpc, buf, len);
      co_await conn->AwaitResponse(*thread, pending);
      if (shared->measuring) {
        shared->scans += 1;
        shared->scan_latency.Record(pending->completed_at - pending->submitted_at);
      }
      conn->FreeRpc(pending);
    }
  }
}

IndexResult RunFlockIndexOneSided(const index::HydraList* list, uint64_t keys,
                                  int threads, Nanos warmup, Nanos measure) {
  constexpr int kClients = 22;
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 1 + kClients, .cores_per_node = 32});
  FlockConfig config;
  FlockRuntime server(cluster, 0, config);
  server.RegisterHandler(kGetRpc, MakeGetHandler(list));
  server.RegisterHandler(kScanRpc, MakeScanHandler(list));
  server.StartServer(31);

  // Publish the read-only index into registered memory once; the directory
  // is handed to every reader at setup (standing in for one RefreshDirectory
  // per client, outside the measured window either way).
  index::HydraMirror mirror(cluster.mem(0), list->data_nodes() + 8);
  mirror.Publish(*list);
  const auto directory = mirror.DirectorySnapshot();

  IndexShared shared;
  FlockConfig client_config;
  client_config.response_dispatchers = threads >= 32 ? 2 : 1;
  std::vector<std::unique_ptr<FlockRuntime>> clients;
  std::vector<std::unique_ptr<index::MirrorReader>> readers;
  uint64_t seed = 0x2545f4914f6cdd1dULL;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<FlockRuntime>(cluster, 1 + c, client_config));
    clients.back()->StartClient();
    Connection* conn =
        clients.back()->Connect(server, static_cast<uint32_t>(threads));
    const RemoteMr dir_mr = conn->AttachMreg(mirror.dir_addr(), mirror.dir_bytes());
    const RemoteMr blocks_mr =
        conn->AttachMreg(mirror.blocks_addr(), mirror.blocks_bytes());
    for (int t = 0; t < threads; ++t) {
      readers.push_back(std::make_unique<index::MirrorReader>(
          *conn, cluster.mem(1 + c), mirror.dir_addr(), dir_mr, blocks_mr,
          mirror.max_blocks()));
      readers.back()->AdoptDirectory(directory);
      cluster.sim().Spawn(OneSidedIndexWorker(
          &cluster, conn, clients.back()->CreateThread(t % 30), readers.back().get(),
          keys, SplitMix64(seed), &shared));
    }
  }
  cluster.sim().RunFor(warmup);
  shared.measuring = true;
  cluster.sim().RunFor(measure);
  shared.measuring = false;

  IndexResult result;
  result.mops = static_cast<double>(shared.gets + shared.scans) /
                (static_cast<double>(measure) / 1e9) / 1e6;
  result.get_p50 = shared.get_latency.Median();
  result.get_p99 = shared.get_latency.P99();
  result.scan_p50 = shared.scan_latency.Median();
  result.scan_p99 = shared.scan_latency.P99();
  return result;
}

IndexResult RunUdIndex(const index::HydraList* list, uint64_t keys, int threads,
                       int outstanding, Nanos warmup, Nanos measure) {
  constexpr int kClients = 22;
  verbs::Cluster cluster(
      verbs::Cluster::Config{.num_nodes = 1 + kClients, .cores_per_node = 32});
  baselines::UdRpcServer server(
      cluster, 0,
      baselines::UdRpcServer::Config{.worker_threads = 32, .recv_pool = 2048});
  server.RegisterHandler(kGetRpc, MakeGetHandler(list));
  server.RegisterHandler(kScanRpc, MakeScanHandler(list));
  server.Start();

  IndexShared shared;
  std::vector<std::unique_ptr<baselines::UdRpcClient>> clients;
  uint64_t seed = 0xbf58476d1ce4e5b9ULL;
  int global_thread = 0;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<baselines::UdRpcClient>(cluster, 1 + c));
    for (int t = 0; t < threads; ++t) {
      auto* thread = clients.back()->CreateThread(
          t % 32, static_cast<uint32_t>(outstanding) + 8);
      cluster.sim().Spawn(
          UdIndexWorker(&cluster, thread, server.endpoint(global_thread++ % 32), keys,
                        outstanding, SplitMix64(seed), &shared));
    }
  }
  cluster.sim().RunFor(warmup);
  shared.measuring = true;
  cluster.sim().RunFor(measure);
  shared.measuring = false;

  IndexResult result;
  result.mops = static_cast<double>(shared.gets + shared.scans) /
                (static_cast<double>(measure) / 1e9) / 1e6;
  result.get_p50 = shared.get_latency.Median();
  result.get_p99 = shared.get_latency.P99();
  result.scan_p50 = shared.scan_latency.Median();
  result.scan_p99 = shared.scan_latency.P99();
  return result;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "fig16_hydralist");
  const uint64_t keys = static_cast<uint64_t>(flags.Int("keys", 4000000));
  const flock::Nanos warmup = flags.Int("warmup_ms", 1) * flock::kMillisecond;
  const flock::Nanos measure = flags.Int("measure_ms", 2) * flock::kMillisecond;
  flags.Finish();

  // One shared read-only index (the paper populates once, then runs get/scan).
  std::printf("populating HydraList with %lu keys...\n",
              static_cast<unsigned long>(keys));
  auto list = std::make_unique<flock::index::HydraList>();
  flock::Nanos ignored = 0;
  for (uint64_t k = 0; k < keys; ++k) {
    list->Insert(k, k * 3 + 1, &ignored);
    if ((k & 0xfff) == 0) {
      // Keep the search layer fresh during the bulk load: with it stale, an
      // ascending load degenerates to an O(n^2) walk of the data list.
      list->DrainSearchUpdates(SIZE_MAX);
    }
  }
  list->DrainSearchUpdates(SIZE_MAX);

  for (int outstanding : {1, 4, 8}) {
    std::printf(
        "\n==== Figs 16/17/18 (outstanding = %d): HydraList 90%% get / 10%% scan ====\n",
        outstanding);
    std::printf("%8s | %10s %8s %8s %9s %9s | %10s %8s %8s %9s %9s\n", "thr/cli",
                "FLock Mops", "getP50", "getP99", "scanP50", "scanP99", "eRPC Mops",
                "getP50", "getP99", "scanP50", "scanP99");
    for (int threads : {1, 2, 4, 8, 16, 32}) {
      const IndexResult fl =
          RunFlockIndex(list.get(), keys, threads, outstanding, warmup, measure);
      const IndexResult ud =
          RunUdIndex(list.get(), keys, threads, outstanding, warmup, measure);
      std::printf(
          "%8d | %10.1f %8.1f %8.1f %9.1f %9.1f | %10.1f %8.1f %8.1f %9.1f %9.1f\n",
          threads, fl.mops, fl.get_p50 / 1e3, fl.get_p99 / 1e3, fl.scan_p50 / 1e3,
          fl.scan_p99 / 1e3, ud.mops, ud.get_p50 / 1e3, ud.get_p99 / 1e3,
          ud.scan_p50 / 1e3, ud.scan_p99 / 1e3);
      json.Row({{"outstanding", outstanding}, {"threads", threads},
                {"system", "flock"}, {"mops", fl.mops}, {"get_p50_ns", fl.get_p50},
                {"get_p99_ns", fl.get_p99}, {"scan_p50_ns", fl.scan_p50},
                {"scan_p99_ns", fl.scan_p99}});
      json.Row({{"outstanding", outstanding}, {"threads", threads},
                {"system", "erpc"}, {"mops", ud.mops}, {"get_p50_ns", ud.get_p50},
                {"get_p99_ns", ud.get_p99}, {"scan_p50_ns", ud.scan_p50},
                {"scan_p99_ns", ud.scan_p99}});
      // One-sided mirror gets (fl_read, no server CPU); scans stay RPC. The
      // mirror path issues ops synchronously, so it only gets outstanding=1
      // rows.
      if (outstanding == 1) {
        const IndexResult os =
            RunFlockIndexOneSided(list.get(), keys, threads, warmup, measure);
        std::printf(
            "%8d | %10.1f %8.1f %8.1f %9.1f %9.1f | (one-sided mirror gets)\n",
            threads, os.mops, os.get_p50 / 1e3, os.get_p99 / 1e3,
            os.scan_p50 / 1e3, os.scan_p99 / 1e3);
        json.Row({{"outstanding", outstanding}, {"threads", threads},
                  {"system", "flock_onesided"}, {"mops", os.mops},
                  {"get_p50_ns", os.get_p50}, {"get_p99_ns", os.get_p99},
                  {"scan_p50_ns", os.scan_p50}, {"scan_p99_ns", os.scan_p99}});
      }
      std::fflush(stdout);
    }
  }
  return 0;
}
