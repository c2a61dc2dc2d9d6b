// RPC vs one-sided crossover — where does fl_read beat the RPC data plane?
//
// One server holds a KV store of [version | value] records; clients run a
// read/write mix against it over two data planes:
//
//   rpc       — every op is an RPC (kGet / kPut), the server CPU executes it.
//   onesided  — point reads go through the OneSidedReader (fl_read + seqlock
//               validation, zero server CPU); locked/contended/unknown keys
//               fall back to the RPC, which also feeds the address cache.
//               Writes stay RPCs (the server serializes installs either way).
//
// The sweep is payload size {8..4096} x read ratio {50, 90, 100}%: one-sided
// wins on small read-mostly workloads (no server CPU, but two reads on the
// wire); RPCs win once payloads amortize the round trip or writes dominate.
// The bench reports the measured crossover payload per read ratio, and the
// 64B/100%-read speedup that scripts/check_perf.py gates on.
//
// Usage: onesided_crossover [--measure_ms=2] [--warmup_ms=1] [--keys=4096]
//                           [--clients=8] [--threads=8] [--server_cores=2]
//                           [--json=<path>]
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/common/rand.h"
#include "src/flock/flock.h"
#include "src/kv/kvstore.h"
#include "src/kv/remote_kv.h"

namespace flock::bench {
namespace {

constexpr uint16_t kGetRpc = 1;
constexpr uint16_t kPutRpc = 2;

// kGet response layout: [ok u64][version u64][version_addr u64][value bytes].
// version_addr is the address-learning channel for the one-sided path.
constexpr uint32_t kGetRespHeader = 24;

struct Shared {
  bool measuring = false;
  uint64_t ops = 0;
  uint64_t rpc_fallbacks = 0;  // one-sided reads that ended up as RPCs
  Histogram latency;
};

RpcHandler MakeGetHandler(kv::KvStore* store) {
  return [store](const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t cap,
                 Nanos* cpu) -> uint32_t {
    uint64_t key = 0;
    std::memcpy(&key, req, 8);
    uint64_t version = 0, addr = 0;
    const uint64_t ok =
        store->Get(key, resp + kGetRespHeader, &version, &addr) ? 1 : 0;
    std::memcpy(resp, &ok, 8);
    std::memcpy(resp + 8, &version, 8);
    std::memcpy(resp + 16, &addr, 8);
    *cpu = kv::KvStore::kAccessCost;
    return kGetRespHeader + (ok != 0 ? store->value_size() : 0);
  };
}

RpcHandler MakePutHandler(kv::KvStore* store) {
  return [store](const uint8_t* req, uint32_t len, uint8_t* resp, uint32_t cap,
                 Nanos* cpu) -> uint32_t {
    uint64_t key = 0;
    std::memcpy(&key, req, 8);
    // Handlers are synchronous on a dispatcher core, so lock+install+unlock
    // here is atomic with respect to other handlers; a false TryLock means a
    // concurrent coordinator (e.g. FlockTX) holds the record — report it.
    const uint64_t ok = store->TryLock(key, nullptr, nullptr) &&
                                store->UpdateAndUnlock(key, req + 8)
                            ? 1
                            : 0;
    std::memcpy(resp, &ok, 8);
    *cpu = 2 * kv::KvStore::kAccessCost;
    return 8;
  };
}

// Shared by both paths: issue ops synchronously (outstanding = 1, the
// latency-honest configuration for a crossover comparison). `reader` is null
// on the pure-RPC path. `span_mrs` lets the one-sided path file addresses
// learned from kGet responses under the covering MR.
sim::Proc Worker(verbs::Cluster* cluster, Connection* conn, FlockThread* thread,
                 kv::OneSidedReader* reader, const std::vector<RemoteMr>* span_mrs,
                 uint64_t keys, uint32_t payload, int read_pct, uint64_t seed,
                 Shared* shared) {
  Rng rng(seed);
  std::vector<uint8_t> put_buf(8 + payload);
  std::vector<uint8_t> value(payload);
  LatencyRecorder lat(cluster->sim(), &shared->latency);
  for (;;) {
    const uint64_t key = rng.NextBelow(keys);
    const bool is_read = rng.NextBelow(100) < static_cast<uint64_t>(read_pct);
    const Nanos start = lat.Start();
    if (is_read) {
      bool need_rpc = true;
      if (reader != nullptr) {
        const auto out =
            co_await reader->Get(*thread, key, value.data(), nullptr);
        need_rpc = out != kv::OneSidedReader::Outcome::kOk;
        if (need_rpc && shared->measuring) {
          shared->rpc_fallbacks += 1;
        }
      }
      if (need_rpc) {
        PendingRpc* rpc = co_await conn->SendRpc(*thread, kGetRpc,
                                                 reinterpret_cast<const uint8_t*>(&key), 8);
        co_await conn->AwaitResponse(*thread, rpc);
        if (reader != nullptr && rpc->ok &&
            rpc->response.size() >= kGetRespHeader) {
          uint64_t addr = 0;
          std::memcpy(&addr, rpc->response.data() + 16, 8);
          if (addr != 0 && !reader->KnowsAddr(key)) {
            for (const RemoteMr& mr : *span_mrs) {
              if (addr >= mr.addr && addr + 8 + payload <= mr.addr + mr.length) {
                reader->LearnAddr(key, addr, mr);
                break;
              }
            }
          }
        }
        conn->FreeRpc(rpc);
      }
    } else {
      std::memcpy(put_buf.data(), &key, 8);
      for (uint32_t i = 0; i < payload; ++i) {
        put_buf[8 + i] = static_cast<uint8_t>(key + i);
      }
      PendingRpc* rpc = co_await conn->SendRpc(
          *thread, kPutRpc, put_buf.data(), static_cast<uint32_t>(put_buf.size()));
      co_await conn->AwaitResponse(*thread, rpc);
      conn->FreeRpc(rpc);
    }
    if (shared->measuring) {
      shared->ops += 1;
      lat.Record(start);
    }
  }
}

struct CrossoverResult {
  double mops = 0;
  int64_t p50 = 0, p99 = 0;
  double onesided_frac = 0;  // fraction of measured reads served by fl_read
};

struct RunConfig {
  uint64_t keys = 4096;
  int clients = 8;
  int threads = 8;
  // The RPC plane must be server-CPU-bound for the crossover to be about
  // the data plane (the paper's motivation: one-sided reads spend zero
  // server CPU). A few dispatchers against clients*threads workers puts the
  // RPC path at its CPU ceiling while fl_read scales with the NIC.
  int server_cores = 2;
  Nanos warmup = kMillisecond;
  Nanos measure = 2 * kMillisecond;
};

CrossoverResult RunPath(const RunConfig& rc, uint32_t payload, int read_pct,
                        bool onesided) {
  verbs::Cluster cluster(verbs::Cluster::Config{
      .num_nodes = 1 + rc.clients, .cores_per_node = 16});
  kv::KvStore store(cluster.mem(0), rc.keys, payload);
  std::vector<uint8_t> value(payload);
  for (uint64_t k = 0; k < rc.keys; ++k) {
    std::memcpy(value.data(), &k, 8);
    FLOCK_CHECK(store.Insert(k, value.data()));
  }

  FlockConfig config;
  FlockRuntime server(cluster, 0, config);
  server.RegisterHandler(kGetRpc, MakeGetHandler(&store));
  server.RegisterHandler(kPutRpc, MakePutHandler(&store));
  server.StartServer(rc.server_cores);

  Shared shared;
  std::vector<std::unique_ptr<FlockRuntime>> clients;
  std::vector<std::unique_ptr<kv::OneSidedReader>> readers;
  std::vector<std::unique_ptr<std::vector<RemoteMr>>> client_mrs;
  uint64_t seed = 0x9e3779b97f4a7c15ULL ^ (payload * 131 + read_pct);
  uint64_t total_reads = 0;  // denominator for onesided_frac (set below)
  for (int c = 0; c < rc.clients; ++c) {
    clients.push_back(std::make_unique<FlockRuntime>(cluster, 1 + c, config));
    clients.back()->StartClient();
    Connection* conn =
        clients.back()->Connect(server, static_cast<uint32_t>(rc.threads));
    auto mrs = std::make_unique<std::vector<RemoteMr>>();
    if (onesided) {
      for (const auto& span : store.spans()) {
        mrs->push_back(conn->AttachMreg(span.addr, span.length));
      }
    }
    for (int t = 0; t < rc.threads; ++t) {
      kv::OneSidedReader* reader = nullptr;
      if (onesided) {
        readers.push_back(std::make_unique<kv::OneSidedReader>(
            *conn, cluster.mem(1 + c), payload));
        reader = readers.back().get();
        // Pre-warm the address cache (stands in for the RPC address-learning
        // channel, which the worker still exercises on fallbacks); learning
        // all keys during a short warmup would need keys/op-rate more sim
        // time than the measured window itself.
        for (uint64_t k = 0; k < rc.keys; ++k) {
          uint64_t addr = 0;
          FLOCK_CHECK(store.Get(k, nullptr, nullptr, &addr));
          for (const RemoteMr& mr : *mrs) {
            if (addr >= mr.addr && addr + 8 + payload <= mr.addr + mr.length) {
              reader->LearnAddr(k, addr, mr);
              break;
            }
          }
        }
      }
      cluster.sim().Spawn(Worker(&cluster, conn,
                                 clients.back()->CreateThread(t % 14), reader,
                                 mrs.get(), rc.keys, payload, read_pct,
                                 SplitMix64(seed), &shared));
    }
    client_mrs.push_back(std::move(mrs));
  }
  cluster.sim().RunFor(rc.warmup);
  // Reset per-reader stats so onesided_frac reflects the measured window
  // (the warmup is dominated by address-learning fallbacks by design).
  uint64_t warm_ok = 0;
  for (const auto& r : readers) {
    warm_ok += r->stats().ok;
  }
  shared.measuring = true;
  cluster.sim().RunFor(rc.measure);
  shared.measuring = false;

  CrossoverResult result;
  result.mops = static_cast<double>(shared.ops) /
                (static_cast<double>(rc.measure) / 1e9) / 1e6;
  result.p50 = shared.latency.Median();
  result.p99 = shared.latency.P99();
  if (onesided) {
    uint64_t ok = 0;
    for (const auto& r : readers) {
      ok += r->stats().ok;
    }
    total_reads = (ok - warm_ok) + shared.rpc_fallbacks;
    result.onesided_frac =
        total_reads == 0
            ? 0
            : static_cast<double>(ok - warm_ok) / static_cast<double>(total_reads);
  }
  return result;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) {
  using namespace flock::bench;
  Flags flags(argc, argv);
  JsonDump json(flags, "onesided_crossover");
  RunConfig rc;
  rc.keys = static_cast<uint64_t>(flags.Int("keys", 4096));
  rc.clients = static_cast<int>(flags.Int("clients", 8));
  rc.threads = static_cast<int>(flags.Int("threads", 8));
  rc.server_cores = static_cast<int>(flags.Int("server_cores", 2));
  rc.warmup = flags.Int("warmup_ms", 1) * flock::kMillisecond;
  rc.measure = flags.Int("measure_ms", 2) * flock::kMillisecond;
  flags.Finish();

  const std::vector<uint32_t> payloads = {8, 64, 256, 1024, 4096};
  const std::vector<int> read_ratios = {50, 90, 100};

  double speedup_64_100 = 0;
  for (int read_pct : read_ratios) {
    std::printf("\n==== Crossover (read ratio = %d%%): %d clients x %d threads ====\n",
                read_pct, rc.clients, rc.threads);
    std::printf("%8s | %9s %8s %8s | %9s %8s %8s %7s | %7s\n", "payload",
                "RPC Mops", "p50(us)", "p99(us)", "1S Mops", "p50(us)", "p99(us)",
                "1S-frac", "speedup");
    int64_t crossover_payload = -1;
    for (uint32_t payload : payloads) {
      const CrossoverResult rpc = RunPath(rc, payload, read_pct, false);
      const CrossoverResult os = RunPath(rc, payload, read_pct, true);
      const double speedup = rpc.mops > 0 ? os.mops / rpc.mops : 0;
      if (speedup >= 1.0) {
        crossover_payload = payload;  // largest payload where one-sided wins
      }
      if (payload == 64 && read_pct == 100) {
        speedup_64_100 = speedup;
      }
      std::printf("%8u | %9.2f %8.1f %8.1f | %9.2f %8.1f %8.1f %6.0f%% | %6.2fx\n",
                  payload, rpc.mops, rpc.p50 / 1e3, rpc.p99 / 1e3, os.mops,
                  os.p50 / 1e3, os.p99 / 1e3, os.onesided_frac * 100, speedup);
      json.Row({{"payload", payload}, {"read_pct", read_pct}, {"path", "rpc"},
                {"mops", rpc.mops}, {"p50_ns", rpc.p50}, {"p99_ns", rpc.p99}});
      json.Row({{"payload", payload}, {"read_pct", read_pct}, {"path", "onesided"},
                {"mops", os.mops}, {"p50_ns", os.p50}, {"p99_ns", os.p99},
                {"onesided_frac", os.onesided_frac}});
      std::fflush(stdout);
    }
    // The measured crossover: the largest swept payload where the one-sided
    // plane still beats the RPC plane at this read ratio (-1 = never wins).
    json.Row({{"read_pct", read_pct}, {"path", "crossover_point"},
              {"crossover_payload", crossover_payload}});
  }
  std::printf("\n64B/100%%-read one-sided speedup over RPC: %.2fx (gate: >= 1.5x)\n",
              speedup_64_100);
  json.Row({{"path", "gate"}, {"speedup_64b_100r", speedup_64_100}});
  return 0;
}
