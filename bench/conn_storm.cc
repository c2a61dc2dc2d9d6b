// Connection-storm bench (DESIGN.md §13): thousands of short-lived clients
// Join the cluster, handshake a connection, fire a small RPC burst and Leave,
// at a configurable aggregate rate (default 1k joins/s). The per-session
// metric is time-to-first-RPC (TTFR): sim-ns from the session's start (before
// Join) until its first RPC response lands.
//
// Every session connects through ConnectAsync, which builds only lane 0 (a
// session's single thread never asks for a second) and recycles lane shells
// harvested from closed connections and departed clients (qp_reset instead of
// qp_create). Two configurations run in one binary over identical schedules
// and differ only in membership-epoch batching, the caller's choice:
//   * unbatched — every Join/Leave bumps the epoch and repartitions the
//                 server individually.
//   * batched   — a driver coalesces the Joins and Leaves of each
//                 --batch-window-us window into one epoch bump and one
//                 repartition.
//
// Each configuration runs twice, and each JSON row carries both runs'
// fingerprints. The row also carries everything scripts/check_perf.py gates:
// p99 TTFR, control-plane rejects, lane failures, the replay window and its
// bound, and the end-of-storm census (live server lanes, sender slots, shell
// pools).
//
// Usage:
//   conn_storm [--sessions=400] [--clients=8] [--gap-us=1000] [--lanes=4]
//              [--rpcs=4] [--payload=64] [--batch-window-us=1000]
//              [--json=<path>]
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/ctrl/control_plane.h"
#include "src/flock/flock.h"

namespace flock::bench {
namespace {

struct StormParams {
  int sessions = 400;
  int clients = 8;
  Nanos gap = 1 * kMillisecond;  // spacing between session starts, cluster-wide
  uint32_t lanes = 4;
  int rpcs = 4;
  uint32_t payload = 64;
  Nanos batch_window = 1 * kMillisecond;  // 0 = no epoch batching
};

struct StormResult {
  uint64_t done = 0;       // sessions that completed the full cycle
  uint64_t calls_ok = 0;
  uint64_t calls_fail = 0;
  std::vector<int64_t> ttfr;  // per-session, -1 if the session never got there
  int64_t ttfr_p50 = -1;
  int64_t ttfr_p99 = -1;
  double handshakes_per_sec = 0;
  Nanos storm_ns = 0;  // sim-span from first session start to last completion
  ctrl::ControlPlane::Stats cp;
  uint64_t epoch = 0;
  size_t replay_window = 0;
  uint64_t client_lane_failures = 0;
  // Server-side quarantines beyond the one each built lane gets at teardown
  // (TearDownSenders quarantines every live lane of a departing client, so
  // the expected total is exactly the number of server lanes ever built).
  uint64_t unexpected_server_failures = 0;
  uint64_t server_lane_failures = 0;
  uint64_t qps_created = 0;   // client + server
  uint64_t qps_recycled = 0;  // client + server
  size_t server_live_lanes = 0;
  size_t server_graveyard = 0;
  size_t server_pool = 0;
  size_t client_pool = 0;
  size_t sender_slots = 0;
  uint64_t fingerprint = 0;  // determinism: TTFRs + counters, order-sensitive
};

struct StormShared {
  sim::Simulator* sim = nullptr;
  ctrl::ControlPlane* cp = nullptr;
  const StormParams* p = nullptr;
  int server_node = 0;
  StormResult* r = nullptr;
  Nanos last_done_at = 0;
};

// One proc per client node: runs the node's share of the session schedule.
// Session k (global index) starts at k * gap, so the aggregate join rate is
// 1/gap regardless of how many client nodes carry the storm.
sim::Proc SessionDriver(StormShared& sh, FlockRuntime& rt, FlockThread* thread,
                        int client_index) {
  const StormParams& p = *sh.p;
  std::vector<uint8_t> payload(p.payload, 0x42);
  std::vector<uint8_t> resp;
  for (int s = client_index; s < p.sessions; s += p.clients) {
    const Nanos target = static_cast<Nanos>(s) * p.gap;
    if (sh.sim->Now() < target) {
      co_await sim::Delay(*sh.sim, target - sh.sim->Now());
    }
    const Nanos t0 = sh.sim->Now();
    sh.cp->Join(rt.node());
    Connection* conn = co_await rt.ConnectAsync(sh.server_node, p.lanes);
    for (int i = 0; i < p.rpcs; ++i) {
      if (co_await conn->Call(*thread, 1, payload.data(), p.payload, &resp)) {
        sh.r->calls_ok += 1;
      } else {
        sh.r->calls_fail += 1;
      }
      if (i == 0) {
        sh.r->ttfr[static_cast<size_t>(s)] =
            static_cast<int64_t>(sh.sim->Now() - t0);
      }
    }
    // Step off the response dispatcher's stack before closing: the last
    // Call's awaiter resumes inline from the dispatcher pass (in_dispatch is
    // still set), and CloseConnection only harvests quiescent lanes into the
    // recycling pool.
    co_await sim::Delay(*sh.sim, 1 * kMicrosecond);
    rt.CloseConnection(conn);
    sh.cp->Leave(rt.node());
    sh.r->done += 1;
    sh.last_done_at = sh.sim->Now();
  }
}

// Membership-epoch batching: Leaves (and Joins) landing inside one window are
// coalesced into a single epoch bump and one server repartition at window
// end. Membership itself flips immediately, so admission checks stay exact.
sim::Proc EpochBatchDriver(StormShared& sh) {
  const uint64_t total = static_cast<uint64_t>(sh.p->sessions);
  while (sh.r->done < total) {
    sh.cp->BeginEpochBatch();
    co_await sim::Delay(*sh.sim, sh.p->batch_window);
    sh.cp->EndEpochBatch();
  }
}

StormResult RunStorm(const StormParams& p) {
  verbs::Cluster cluster(verbs::Cluster::Config{
      .num_nodes = p.clients + 1, .cores_per_node = 16});
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);

  FlockRuntime server(cluster, 0, FlockConfig{});
  server.RegisterHandler(1, [](const uint8_t* req, uint32_t req_len,
                               uint8_t* resp, uint32_t, Nanos* cpu) -> uint32_t {
    *cpu = 50;
    std::memcpy(resp, req, req_len);
    return req_len;
  });
  server.StartServer(4);

  std::vector<std::unique_ptr<FlockRuntime>> clients;
  std::vector<FlockThread*> threads;
  for (int c = 0; c < p.clients; ++c) {
    clients.push_back(
        std::make_unique<FlockRuntime>(cluster, c + 1, FlockConfig{}));
    clients.back()->StartClient();
    threads.push_back(clients.back()->CreateThread(2));
  }

  StormResult r;
  r.ttfr.assign(static_cast<size_t>(p.sessions), -1);
  StormShared sh;
  sh.sim = &cluster.sim();
  sh.cp = &cp;
  sh.p = &p;
  sh.server_node = 0;
  sh.r = &r;

  // The storm's client nodes start outside the cluster: each session Joins on
  // entry and Leaves on exit, the way the ISSUE's ephemeral clients would.
  for (int c = 0; c < p.clients; ++c) {
    cp.Leave(c + 1);
  }

  for (int c = 0; c < p.clients; ++c) {
    cluster.sim().Spawn(SessionDriver(sh, *clients[c], threads[c], c));
  }
  if (p.batch_window > 0) {
    cluster.sim().Spawn(EpochBatchDriver(sh));
  }

  // Run until every session completed (the server's schedulers tick forever,
  // so the simulation never goes idle on its own). The cap only trips if the
  // storm wedges; the row then reports done < sessions.
  const Nanos cap = static_cast<Nanos>(p.sessions) * p.gap + 200 * kMillisecond;
  while (r.done < static_cast<uint64_t>(p.sessions) &&
         cluster.sim().Now() < cap) {
    cluster.sim().RunFor(1 * kMillisecond);
  }

  std::vector<int64_t> sorted;
  for (int64_t t : r.ttfr) {
    if (t >= 0) {
      sorted.push_back(t);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty()) {
    r.ttfr_p50 = sorted[sorted.size() / 2];
    r.ttfr_p99 = sorted[sorted.size() * 99 / 100];
  }
  r.storm_ns = sh.last_done_at;
  r.handshakes_per_sec =
      r.storm_ns == 0 ? 0
                      : static_cast<double>(r.done) * 1e9 /
                            static_cast<double>(r.storm_ns);
  r.cp = cp.stats();
  r.epoch = cp.epoch();
  r.replay_window = cp.replay_window_entries();
  r.server_lane_failures = server.server_stats().lane_failures;
  r.qps_created = server.server_stats().qps_created;
  r.qps_recycled = server.server_stats().qps_recycled;
  const uint64_t server_lanes_built =
      server.server_stats().qps_created + server.server_stats().qps_recycled;
  r.unexpected_server_failures =
      r.server_lane_failures > server_lanes_built
          ? r.server_lane_failures - server_lanes_built
          : 0;
  r.server_live_lanes = server.ServerLiveLanes();
  r.server_graveyard = server.ServerGraveyardLanes();
  r.server_pool = server.ServerLanePool();
  r.sender_slots = server.ServerSenderSlots();
  for (const auto& client : clients) {
    r.client_lane_failures += client->client_stats().lane_failures;
    r.qps_created += client->client_stats().qps_created;
    r.qps_recycled += client->client_stats().qps_recycled;
    r.client_pool += client->ClientLanePool();
  }

  TraceHash hash;
  for (int64_t t : r.ttfr) {
    hash.Mix(static_cast<uint64_t>(t));
  }
  hash.Mix(r.done)
      .Mix(r.calls_ok)
      .Mix(r.calls_fail)
      .Mix(r.cp.calls)
      .Mix(r.epoch)
      .Mix(static_cast<uint64_t>(r.storm_ns))
      .Mix(r.qps_created)
      .Mix(r.qps_recycled);
  r.fingerprint = hash.value();
  return r;
}

uint64_t TotalRejects(const StormResult& r) {
  return r.cp.rejected_malformed + r.cp.rejected_replay +
         r.cp.rejected_no_endpoint + r.cp.rejected_not_member;
}

void PrintRow(const char* name, const StormResult& r) {
  std::printf("%-10s %9lu %12.0f %10.1f %10.1f %8lu %8lu %7lu %7lu\n", name,
              static_cast<unsigned long>(r.done), r.handshakes_per_sec,
              static_cast<double>(r.ttfr_p50) / 1e3,
              static_cast<double>(r.ttfr_p99) / 1e3,
              static_cast<unsigned long>(r.qps_created),
              static_cast<unsigned long>(r.qps_recycled),
              static_cast<unsigned long>(TotalRejects(r)),
              static_cast<unsigned long>(r.client_lane_failures +
                                         r.unexpected_server_failures));
}

void AddRow(JsonDump* json, const char* name, const StormParams& p,
            const StormResult& r, const StormResult& rerun) {
  JsonRow row;
  row.Add("config", name)
      .Add("sessions", p.sessions)
      .Add("clients", p.clients)
      .Add("gap_us", static_cast<int64_t>(p.gap / kMicrosecond))
      .Add("lanes", p.lanes)
      .Add("rpcs_per_session", p.rpcs)
      .Add("batch_window_us", static_cast<int64_t>(p.batch_window / kMicrosecond))
      .Add("done", r.done)
      .Add("handshakes_per_sec", r.handshakes_per_sec)
      .Add("ttfr_p50_ns", r.ttfr_p50)
      .Add("ttfr_p99_ns", r.ttfr_p99)
      .Add("calls_ok", r.calls_ok)
      .Add("calls_fail", r.calls_fail)
      .Add("ctrl_calls", r.cp.calls)
      .Add("rejected_malformed", r.cp.rejected_malformed)
      .Add("rejected_replay", r.cp.rejected_replay)
      .Add("rejected_no_endpoint", r.cp.rejected_no_endpoint)
      .Add("rejected_not_member", r.cp.rejected_not_member)
      .Add("joins", r.cp.joins)
      .Add("leaves", r.cp.leaves)
      .Add("epoch", r.epoch)
      .Add("epoch_batches", r.cp.epoch_batches)
      .Add("replay_window_entries", static_cast<uint64_t>(r.replay_window))
      .Add("nonce_window", static_cast<uint64_t>(ctrl::ControlPlane::kNonceWindow))
      .Add("qps_created", r.qps_created)
      .Add("qps_recycled", r.qps_recycled)
      .Add("client_lane_failures", r.client_lane_failures)
      .Add("server_lane_failures", r.server_lane_failures)
      .Add("unexpected_server_failures", r.unexpected_server_failures)
      .Add("server_live_lanes", static_cast<uint64_t>(r.server_live_lanes))
      .Add("server_graveyard", static_cast<uint64_t>(r.server_graveyard))
      .Add("server_lane_pool", static_cast<uint64_t>(r.server_pool))
      .Add("client_lane_pool", static_cast<uint64_t>(r.client_pool))
      .Add("sender_slots", static_cast<uint64_t>(r.sender_slots))
      .Add("fingerprint", std::to_string(r.fingerprint))
      .Add("fingerprint_rerun", std::to_string(rerun.fingerprint));
  json->Row(row);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  StormParams p;
  p.sessions = static_cast<int>(flags.Int("sessions", 400));
  p.clients = static_cast<int>(flags.Int("clients", 8));
  p.gap = flags.Int("gap-us", 1000) * kMicrosecond;
  p.lanes = static_cast<uint32_t>(flags.Int("lanes", 4));
  p.rpcs = static_cast<int>(flags.Int("rpcs", 4));
  p.payload = static_cast<uint32_t>(flags.Int("payload", 64));
  const Nanos batch_window = flags.Int("batch-window-us", 1000) * kMicrosecond;
  JsonDump json(flags, "conn_storm");
  flags.Finish();

  StormParams unbatched = p;
  unbatched.batch_window = 0;
  StormParams batched = p;
  batched.batch_window = batch_window;

  PrintBanner("conn_storm: Join -> connect -> RPC burst -> Leave under churn");
  std::printf("%d sessions across %d client nodes, one every %ld us "
              "(%.0f joins/s offered)\n",
              p.sessions, p.clients, static_cast<long>(p.gap / kMicrosecond),
              1e9 / static_cast<double>(p.gap));

  // Each configuration runs twice; check_perf.py compares the fingerprints.
  const StormResult u1 = RunStorm(unbatched);
  const StormResult u2 = RunStorm(unbatched);
  const StormResult b1 = RunStorm(batched);
  const StormResult b2 = RunStorm(batched);

  std::printf("%-10s %9s %12s %10s %10s %8s %8s %7s %7s\n", "config", "done",
              "handshakes/s", "p50_us", "p99_us", "qp_new", "qp_rec", "rej",
              "lane_f");
  PrintRow("unbatched", u1);
  PrintRow("batched", b1);
  std::printf("epochs: unbatched %lu bumps, batched %lu bumps in %lu batches\n",
              static_cast<unsigned long>(u1.epoch),
              static_cast<unsigned long>(b1.epoch),
              static_cast<unsigned long>(b1.cp.epoch_batches));
  AddRow(&json, "unbatched", unbatched, u1, u2);
  AddRow(&json, "batched", batched, b1, b2);
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
