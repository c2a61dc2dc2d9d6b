// The sharded kernel's determinism contract (DESIGN.md §12): the same seed
// and workload must execute the exact same trace — event counts, RPC
// completions, kernel delivery counters, per-node device counters and final
// clock — at every shard count and every worker-pool size. These tests run
// the same worlds at 1/2/4/8 shards (and with a real multi-thread pool) and
// compare fingerprints, first at the raw kernel level (hand-built procs
// hopping between nodes) and then through the full Flock stack.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/flock/flock.h"

namespace flock {
namespace {

// ---------------------------------------------------------------------------
// Kernel-level: hand-built procs exercising hops, delays and spawn ordering
// ---------------------------------------------------------------------------

struct KernelWorld {
  sim::Simulator sim;
  std::vector<uint64_t> node_log_hash;  // per-node order-sensitive digest
  std::vector<uint64_t> node_events;
};

// Each worker lives on `home`, does some same-node work, then ping-pongs to a
// peer node and back. The log hash folds (now, node, step) at every resume,
// so any reordering — across nodes, across shards, across equal timestamps —
// changes the fingerprint. With `end_on_peer` the worker hops to its peer
// once more and finishes there, on a foreign shard whenever the peer lives
// on another one.
sim::Proc KernelWorker(KernelWorld* w, int home, int peer, Nanos hop,
                       int rounds, bool end_on_peer) {
  bench::TraceHash h;
  for (int r = 0; r < rounds; ++r) {
    co_await sim::Delay(w->sim, (r % 3) * 7);
    h.Mix(static_cast<uint64_t>(w->sim.Now())).Mix(static_cast<uint64_t>(home));
    w->node_events[static_cast<size_t>(home)] += 1;
    co_await sim::HopToNode(w->sim, peer, hop);
    h.Mix(static_cast<uint64_t>(w->sim.Now())).Mix(static_cast<uint64_t>(peer));
    w->node_events[static_cast<size_t>(peer)] += 1;
    co_await sim::HopToNode(w->sim, home, hop + (r % 2));
  }
  int last = home;
  if (end_on_peer) {
    co_await sim::HopToNode(w->sim, peer, hop);
    last = peer;
  }
  w->node_log_hash[static_cast<size_t>(last)] ^= h.value();
}

struct KernelResult {
  uint64_t events = 0;
  uint64_t resumes = 0;
  Nanos end = 0;
  uint64_t hash = 0;
  size_t live = 0;  // procs left once the queues drain: every one must finish
};

// `slice` > 0 runs the world as RunFor(slice) calls until it drains, so the
// worker pool parks and restarts on every call; `end_on_peer` selects the
// worker variant that finishes on a foreign shard.
KernelResult RunKernelWorld(int num_nodes, int num_shards, int num_workers,
                            Nanos slice = 0, bool end_on_peer = false) {
  constexpr Nanos kHop = 100;
  KernelWorld w;
  w.node_log_hash.assign(static_cast<size_t>(num_nodes), 0);
  w.node_events.assign(static_cast<size_t>(num_nodes), 0);
  std::vector<int> node_shard(static_cast<size_t>(num_nodes));
  for (int n = 0; n < num_nodes; ++n) {
    node_shard[static_cast<size_t>(n)] = n % num_shards;
  }
  w.sim.ConfigureSharding(num_shards, node_shard, kHop, num_workers);
  // Several workers per node, crossing shard boundaries in both directions,
  // with colliding timestamps (same hop delay from the same start time).
  // Round counts differ per worker, so finishes spread over many windows of
  // both mailbox parities.
  for (int n = 0; n < num_nodes; ++n) {
    for (int k = 0; k < 3; ++k) {
      const int rounds = 40 + (n + k) % 5;
      w.sim.Spawn(
          KernelWorker(&w, n, (n + 1 + k) % num_nodes, kHop, rounds, end_on_peer), n);
    }
  }
  KernelResult r;
  if (slice > 0) {
    while (!w.sim.Idle()) {
      r.events += w.sim.RunFor(slice);
    }
  } else {
    r.events = w.sim.Run();
  }
  r.live = w.sim.live_proc_count();
  r.resumes = w.sim.resumes();
  r.end = w.sim.Now();
  bench::TraceHash h;
  for (int n = 0; n < num_nodes; ++n) {
    h.Mix(w.node_log_hash[static_cast<size_t>(n)])
        .Mix(w.node_events[static_cast<size_t>(n)]);
  }
  r.hash = h.value();
  return r;
}

TEST(DeterministicParallelTest, KernelTraceIdenticalAcrossShardCounts) {
  const KernelResult base = RunKernelWorld(8, 1, 0);
  EXPECT_GT(base.events, 0u);
  for (const int shards : {2, 4, 8}) {
    const KernelResult r = RunKernelWorld(8, shards, 0);
    EXPECT_EQ(base.events, r.events) << "shards=" << shards;
    EXPECT_EQ(base.resumes, r.resumes) << "shards=" << shards;
    EXPECT_EQ(base.end, r.end) << "shards=" << shards;
    EXPECT_EQ(base.hash, r.hash) << "shards=" << shards;
  }
}

TEST(DeterministicParallelTest, KernelTraceIndependentOfWorkerPoolSize) {
  const KernelResult base = RunKernelWorld(8, 4, 1);
  // Real OS threads: 2 and 4 workers must replay the single-threaded trace.
  for (const int workers : {2, 4}) {
    const KernelResult r = RunKernelWorld(8, 4, workers);
    EXPECT_EQ(base.events, r.events) << "workers=" << workers;
    EXPECT_EQ(base.hash, r.hash) << "workers=" << workers;
  }
}

// Every combination of short RunFor slices (the pool parks and restarts on
// each call), an uneven shard->worker map (8 shards on 3 workers) and procs
// that finish on a foreign shard must replay the 1-shard sequential trace of
// the same world.
TEST(DeterministicParallelTest, KernelTraceIdenticalUnderSlicingAndForeignFinish) {
  constexpr Nanos kSlice = 250;  // 2.5 lookaheads: most calls cut a window
  for (const Nanos slice : {Nanos{0}, kSlice}) {
    for (const bool end_on_peer : {false, true}) {
      const KernelResult base = RunKernelWorld(8, 1, 0, slice, end_on_peer);
      EXPECT_GT(base.events, 0u);
      for (const auto& [shards, workers] :
           {std::pair{4, 2}, std::pair{8, 3}, std::pair{8, 4}}) {
        const KernelResult r = RunKernelWorld(8, shards, workers, slice, end_on_peer);
        SCOPED_TRACE(testing::Message() << "slice=" << slice << " end_on_peer=" << end_on_peer
                                        << " shards=" << shards << " workers=" << workers);
        EXPECT_EQ(base.events, r.events);
        EXPECT_EQ(base.resumes, r.resumes);
        EXPECT_EQ(base.end, r.end);
        EXPECT_EQ(base.hash, r.hash);
        EXPECT_EQ(r.live, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Full-stack: the perf_smoke world through the Flock runtime
// ---------------------------------------------------------------------------

sim::Proc EchoWorker(Connection* conn, FlockThread* thread, uint64_t* done) {
  std::vector<uint8_t> payload(64, 0x5a);
  std::vector<uint8_t> resp;
  for (;;) {
    co_await conn->Call(*thread, 1, payload.data(), 64, &resp);
    (*done)++;
  }
}

struct StackResult {
  uint64_t events = 0;
  uint64_t rpcs = 0;
  uint64_t resumes = 0;
  uint64_t direct_resumes = 0;
  uint64_t coalesced_wakes = 0;
  uint64_t hash = 0;
};

// Nodes 0..servers-1 serve; every client connects to every server with
// `threads` threads each, all on the default config.
StackResult RunStack(int servers, int clients, int threads, int shards,
                     int workers) {
  verbs::Cluster cluster(verbs::Cluster::Config{.num_nodes = servers + clients,
                                                .cores_per_node = 34,
                                                .num_shards = shards,
                                                .num_workers = workers});
  FlockConfig config;
  std::vector<std::unique_ptr<FlockRuntime>> server_rts;
  for (int s = 0; s < servers; ++s) {
    auto server = std::make_unique<FlockRuntime>(cluster, s, config);
    server->RegisterHandler(
        1, [](const uint8_t* req, uint32_t req_len, uint8_t* resp, uint32_t,
              Nanos* cpu) -> uint32_t {
          *cpu = 50;
          std::memcpy(resp, req, req_len);
          return req_len;
        });
    server->StartServer(4);
    server_rts.push_back(std::move(server));
  }

  std::vector<std::unique_ptr<FlockRuntime>> client_rts;
  std::vector<uint64_t> done(static_cast<size_t>(clients), 0);
  for (int c = 0; c < clients; ++c) {
    const int node = servers + c;
    auto rt = std::make_unique<FlockRuntime>(cluster, node, config);
    rt->StartClient();
    for (int s = 0; s < servers; ++s) {
      Connection* conn =
          rt->Connect(*server_rts[static_cast<size_t>(s)],
                      static_cast<uint32_t>(threads));
      for (int t = 0; t < threads; ++t) {
        cluster.sim().Spawn(EchoWorker(conn, rt->CreateThread(s * threads + t),
                                       &done[static_cast<size_t>(c)]),
                            node);
      }
    }
    client_rts.push_back(std::move(rt));
  }
  cluster.sim().RunFor(2 * kMillisecond);

  StackResult r;
  r.events = cluster.sim().events_processed();
  r.resumes = cluster.sim().resumes();
  r.direct_resumes = cluster.sim().direct_resumes();
  r.coalesced_wakes = cluster.sim().coalesced_wakes();
  bench::TraceHash h;
  for (int n = 0; n < cluster.num_nodes(); ++n) {
    const verbs::Device::Stats& d = cluster.device(n).stats();
    h.Mix(d.tx_msgs).Mix(d.tx_bytes).Mix(d.tx_wire_bytes).Mix(d.tx_packets);
    h.Mix(d.rx_msgs).Mix(d.rx_packets).Mix(d.cqes_dma_ed);
  }
  for (const uint64_t dn : done) {
    r.rpcs += dn;
    h.Mix(dn);
  }
  r.hash = h.value();
  return r;
}

TEST(DeterministicParallelTest, FlockStackTraceIdenticalAcrossShardCounts) {
  // 8 nodes (server + 7 clients) so 8 shards still map one node per shard.
  const StackResult base = RunStack(1, 7, 2, 1, 0);
  EXPECT_GT(base.rpcs, 1000u);
  for (const int shards : {2, 4, 8}) {
    const StackResult r = RunStack(1, 7, 2, shards, 0);
    EXPECT_EQ(base.events, r.events) << "shards=" << shards;
    EXPECT_EQ(base.rpcs, r.rpcs) << "shards=" << shards;
    EXPECT_EQ(base.resumes, r.resumes) << "shards=" << shards;
    EXPECT_EQ(base.direct_resumes, r.direct_resumes) << "shards=" << shards;
    EXPECT_EQ(base.coalesced_wakes, r.coalesced_wakes) << "shards=" << shards;
    EXPECT_EQ(base.hash, r.hash) << "shards=" << shards;
  }
}

TEST(DeterministicParallelTest, FlockStackTraceIdenticalWithWorkerThreads) {
  const StackResult base = RunStack(1, 3, 2, 4, 1);
  const StackResult threaded = RunStack(1, 3, 2, 4, 4);
  EXPECT_EQ(base.events, threaded.events);
  EXPECT_EQ(base.rpcs, threaded.rpcs);
  EXPECT_EQ(base.hash, threaded.hash);
  EXPECT_GT(base.rpcs, 0u);
}

TEST(DeterministicParallelTest, MultiServerStackTraceIdenticalOnWorkerThreads) {
  // Four servers, one per shard, run their schedulers' window rolls at the
  // same sim instants on different worker threads. Every runtime consults
  // the cluster-global tenant registry; with no tenant registered those
  // calls must write nothing (TSan runs this binary), and the trace must
  // equal the single-shard run's.
  const StackResult base = RunStack(4, 4, 2, 1, 0);
  EXPECT_GT(base.rpcs, 1000u);
  for (const int workers : {2, 4}) {
    const StackResult r = RunStack(4, 4, 2, 4, workers);
    EXPECT_EQ(base.events, r.events) << "workers=" << workers;
    EXPECT_EQ(base.rpcs, r.rpcs) << "workers=" << workers;
    EXPECT_EQ(base.hash, r.hash) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace flock
