// Tenant-isolation bench (DESIGN.md §15): a well-behaved victim tenant shares
// one server with a misbehaving attacker tenant, and the tenant layer —
// admission control, weighted-fair credit clipping, byte quotas and the
// misbehaving-tenant throttle — must keep the victim's latency and throughput
// within a bounded distance of its solo (attacker-free) run.
//
// Profiles, all over identical victim schedules:
//   * solo       — the victim runs alone; its p50/p99 and throughput are the
//                  baseline the attacked profiles are compared against.
//   * hotloop    — 8 attacker threads in a closed loop of small RPCs, no
//                  think time: a classic credit/CPU flood.
//   * oversized  — 4 attacker threads hammering near-max payloads: a byte
//                  flood that trips the quota with few requests.
//   * churn      — the attacker connects, bursts, disconnects in a loop:
//                  admission + teardown pressure on the handshake path and
//                  the recycling pools.
//   * open       — hotloop again with no tenants registered, both sides
//                  connecting as the default tenant: the unprotected
//                  reference, reported (and written to JSON) but not gated.
//
// Every gated profile runs twice, and its JSON row carries both runs'
// fingerprints. scripts/check_perf.py gates the rows: victim p99 and
// throughput against solo, no victim RPC ever fails, the attacker still makes
// progress (isolation must not mean starvation), the flood profiles engage
// the throttle, and after teardown the registry holds zero live
// connections/lanes for both tenants with zero unknown-tenant rejects.
//
// Usage:
//   tenant_isolation [--rpcs=1500] [--victim-threads=2] [--think-us=15]
//                    [--payload=64] [--json=<path>]
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/ctrl/control_plane.h"
#include "src/flock/flock.h"
#include "src/tenant/tenant.h"

namespace flock::bench {
namespace {

constexpr tenant::TenantId kVictim = 1;
constexpr tenant::TenantId kAttacker = 2;

enum class Attack { kNone, kHotLoop, kOversized, kChurn };

struct IsoParams {
  int rpcs = 1500;  // per victim thread
  int victim_threads = 2;
  Nanos think = 15 * kMicrosecond;
  uint32_t payload = 64;
  Attack attack = Attack::kNone;
  // false = register no policies; victim and attacker are the default tenant.
  bool register_tenants = true;
};

struct IsoResult {
  uint64_t victim_ok = 0;
  uint64_t victim_fail = 0;
  uint64_t attacker_ok = 0;
  uint64_t attacker_fail = 0;
  uint64_t attacker_cycles = 0;  // churn: completed connect->burst->close
  int64_t p50 = -1;
  int64_t p99 = -1;
  double victim_rps = 0;
  Nanos span = 0;  // start of victim traffic to its last completion
  // Tenant census at end of run (before the world is torn down).
  uint64_t attacker_throttle_events = 0;
  uint64_t attacker_quota_stalls = 0;
  uint64_t attacker_credit_stalls = 0;
  uint64_t unknown_rejects = 0;
  uint32_t victim_live_conns = 0;
  uint32_t victim_live_lanes = 0;
  uint32_t attacker_live_conns = 0;
  uint32_t attacker_live_lanes = 0;
  uint64_t fingerprint = 0;
};

struct IsoShared {
  sim::Simulator* sim = nullptr;
  const IsoParams* p = nullptr;
  IsoResult* r = nullptr;
  bool stop = false;  // raised once every victim thread finished
  int victims_done = 0;
  Nanos last_victim_done = 0;
  std::vector<int64_t>* latencies = nullptr;
};

sim::Proc VictimLoop(IsoShared& sh, Connection* conn, FlockThread* thread,
                     size_t slot) {
  const IsoParams& p = *sh.p;
  std::vector<uint8_t> payload(p.payload, 0x42);
  std::vector<uint8_t> resp;
  for (int i = 0; i < p.rpcs; ++i) {
    const Nanos t0 = sh.sim->Now();
    if (co_await conn->Call(*thread, 1, payload.data(), p.payload, &resp)) {
      sh.r->victim_ok += 1;
      (*sh.latencies)[slot * static_cast<size_t>(p.rpcs) +
                      static_cast<size_t>(i)] =
          static_cast<int64_t>(sh.sim->Now() - t0);
    } else {
      sh.r->victim_fail += 1;
    }
    co_await sim::Delay(*sh.sim, p.think);
  }
  sh.victims_done += 1;
  sh.last_victim_done = sh.sim->Now();
}

// hotloop / oversized: closed loop, no think time, until the victim is done.
sim::Proc FloodAttacker(IsoShared& sh, Connection* conn, FlockThread* thread,
                        uint32_t payload_bytes) {
  std::vector<uint8_t> payload(payload_bytes, 0xAB);
  std::vector<uint8_t> resp;
  while (!sh.stop) {
    if (co_await conn->Call(*thread, 1, payload.data(), payload_bytes, &resp)) {
      sh.r->attacker_ok += 1;
    } else {
      sh.r->attacker_fail += 1;
    }
  }
}

// churn: connect -> small burst -> disconnect, in a loop. Exercises admission
// and the disconnect/recycling path while the victim runs.
sim::Proc ChurnAttacker(IsoShared& sh, FlockRuntime& rt, FlockThread* thread,
                        int server_node) {
  std::vector<uint8_t> payload(64, 0xAB);
  std::vector<uint8_t> resp;
  while (!sh.stop) {
    Connection* conn = co_await rt.ConnectAsync(server_node, 4, kAttacker);
    if (conn == nullptr) {
      co_await sim::Delay(*sh.sim, 10 * kMicrosecond);
      continue;
    }
    for (int i = 0; i < 16 && !sh.stop; ++i) {
      if (co_await conn->Call(*thread, 1, payload.data(), 64, &resp)) {
        sh.r->attacker_ok += 1;
      } else {
        sh.r->attacker_fail += 1;
      }
    }
    // Step off the dispatcher's stack before closing (see conn_storm).
    co_await sim::Delay(*sh.sim, 1 * kMicrosecond);
    rt.CloseConnection(conn);
    sh.r->attacker_cycles += 1;
  }
}

IsoResult RunProfile(const IsoParams& p, JsonDump* tenant_rows_json) {
  verbs::Cluster::Config cc;
  cc.num_nodes = 3;  // 0 = server, 1 = victim, 2 = attacker
  cc.cores_per_node = 16;
  verbs::Cluster cluster(cc);
  ctrl::ControlPlane& cp = ctrl::ControlPlane::For(cluster);

  // Policies are registered identically in every profile (including solo), so
  // the victim's weighted share of the window pool is the same everywhere and
  // solo-vs-attacked comparisons isolate the attacker's traffic, not a
  // registry delta.
  if (p.register_tenants) {
    tenant::TenantPolicy victim;
    victim.weight = 4;
    victim.max_lanes = 8;
    victim.max_connections = 4;
    cp.tenants().Register(kVictim, victim);
    tenant::TenantPolicy attacker;
    attacker.weight = 1;
    attacker.credit_budget = 64;
    attacker.byte_quota = 16 * 1024;
    attacker.max_lanes = 4;
    attacker.max_connections = 2;
    cp.tenants().Register(kAttacker, attacker);
  }

  FlockConfig cfg;
  FlockRuntime server(cluster, 0, cfg);
  server.RegisterHandler(1, [](const uint8_t* req, uint32_t req_len,
                               uint8_t* resp, uint32_t, Nanos* cpu) -> uint32_t {
    *cpu = 200;
    std::memcpy(resp, req, req_len);
    return req_len;
  });
  server.StartServer(4);

  FlockRuntime victim_rt(cluster, 1, cfg);
  victim_rt.StartClient();
  FlockRuntime attacker_rt(cluster, 2, cfg);
  attacker_rt.StartClient();

  IsoResult r;
  std::vector<int64_t> latencies(
      static_cast<size_t>(p.victim_threads) * static_cast<size_t>(p.rpcs), -1);
  IsoShared sh;
  sh.sim = &cluster.sim();
  sh.p = &p;
  sh.r = &r;
  sh.latencies = &latencies;

  Connection* victim_conn =
      victim_rt.Connect(server, 4,
                        p.register_tenants ? kVictim : tenant::kDefaultTenant);
  for (int t = 0; t < p.victim_threads; ++t) {
    cluster.sim().Spawn(VictimLoop(sh, victim_conn, victim_rt.CreateThread(t),
                                   static_cast<size_t>(t)),
                        /*node=*/1);
  }

  Connection* attacker_conn = nullptr;
  const tenant::TenantId atk_id =
      p.register_tenants ? kAttacker : tenant::kDefaultTenant;
  switch (p.attack) {
    case Attack::kNone:
      break;
    case Attack::kHotLoop:
      attacker_conn = attacker_rt.Connect(server, 4, atk_id);
      for (int t = 0; t < 8; ++t) {
        cluster.sim().Spawn(
            FloodAttacker(sh, attacker_conn, attacker_rt.CreateThread(t), 64),
            /*node=*/2);
      }
      break;
    case Attack::kOversized:
      attacker_conn = attacker_rt.Connect(server, 4, atk_id);
      for (int t = 0; t < 4; ++t) {
        cluster.sim().Spawn(FloodAttacker(sh, attacker_conn,
                                          attacker_rt.CreateThread(t), 4096),
                            /*node=*/2);
      }
      break;
    case Attack::kChurn:
      for (int t = 0; t < 4; ++t) {
        cluster.sim().Spawn(
            ChurnAttacker(sh, attacker_rt, attacker_rt.CreateThread(t), 0),
            /*node=*/2);
      }
      break;
  }

  // Run until the victim finishes its fixed schedule; the cap only trips if
  // isolation failed badly enough to wedge the victim.
  const Nanos cap =
      static_cast<Nanos>(p.rpcs) * (p.think + 1 * kMillisecond);
  while (sh.victims_done < p.victim_threads && cluster.sim().Now() < cap) {
    cluster.sim().RunFor(1 * kMillisecond);
  }
  sh.stop = true;
  cluster.sim().RunFor(2 * kMillisecond);  // attackers drain their last call

  // Orderly teardown while the world is still up: both tenants' admission
  // accounting must return to zero.
  victim_rt.CloseConnection(victim_conn);
  if (attacker_conn != nullptr) {
    attacker_rt.CloseConnection(attacker_conn);
  }
  cluster.sim().RunFor(1 * kMillisecond);

  std::vector<int64_t> sorted;
  for (int64_t l : latencies) {
    if (l >= 0) {
      sorted.push_back(l);
    }
  }
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty()) {
    r.p50 = sorted[sorted.size() / 2];
    r.p99 = sorted[sorted.size() * 99 / 100];
  }
  r.span = sh.last_victim_done;
  r.victim_rps = r.span == 0 ? 0
                             : static_cast<double>(r.victim_ok) * 1e9 /
                                   static_cast<double>(r.span);
  // Without registered tenants every census read below is zero.
  const tenant::TenantRegistry& reg = cp.tenants();
  if (const tenant::TenantCounters* c = reg.CountersFor(kAttacker)) {
    r.attacker_throttle_events = c->throttle_events;
    r.attacker_quota_stalls = c->quota_stalls;
    r.attacker_credit_stalls = c->credit_stalls;
  }
  r.unknown_rejects = reg.unknown_rejects();
  r.victim_live_conns = reg.LiveConnections(kVictim);
  r.victim_live_lanes = reg.LiveLanes(kVictim);
  r.attacker_live_conns = reg.LiveConnections(kAttacker);
  r.attacker_live_lanes = reg.LiveLanes(kAttacker);
  if (tenant_rows_json != nullptr) {
    AppendTenantRows(reg, static_cast<double>(cluster.sim().Now()) / 1e9,
                     tenant_rows_json);
  }

  TraceHash hash;
  for (int64_t l : latencies) {
    hash.Mix(static_cast<uint64_t>(l));
  }
  hash.Mix(r.victim_ok)
      .Mix(r.victim_fail)
      .Mix(r.attacker_ok)
      .Mix(r.attacker_fail)
      .Mix(r.attacker_cycles)
      .Mix(static_cast<uint64_t>(r.span))
      .Mix(r.attacker_throttle_events);
  r.fingerprint = hash.value();
  return r;
}

void PrintRow(const char* name, const IsoResult& r) {
  std::printf("%-10s %9lu %6lu %10.1f %10.1f %10.0f %9lu %8lu %8lu\n", name,
              static_cast<unsigned long>(r.victim_ok),
              static_cast<unsigned long>(r.victim_fail),
              static_cast<double>(r.p50) / 1e3,
              static_cast<double>(r.p99) / 1e3, r.victim_rps,
              static_cast<unsigned long>(r.attacker_ok),
              static_cast<unsigned long>(r.attacker_throttle_events),
              static_cast<unsigned long>(r.attacker_quota_stalls +
                                         r.attacker_credit_stalls));
}

// rerun is the profile's second run; the ungated open profile runs once.
void AddRow(JsonDump* json, const char* name, const IsoParams& p,
            const IsoResult& r, const IsoResult* rerun, const IsoResult& solo) {
  JsonRow row;
  row.Add("config", name)
      .Add("tenants_registered", p.register_tenants ? 1 : 0)
      .Add("victim_threads", p.victim_threads)
      .Add("rpcs_per_thread", p.rpcs)
      .Add("think_us", static_cast<int64_t>(p.think / kMicrosecond))
      .Add("payload_bytes", p.payload)
      .Add("victim_ok", r.victim_ok)
      .Add("victim_fail", r.victim_fail)
      .Add("victim_p50_ns", r.p50)
      .Add("victim_p99_ns", r.p99)
      .Add("victim_rps", r.victim_rps)
      .Add("p99_ratio_vs_solo",
           solo.p99 > 0 ? static_cast<double>(r.p99) /
                              static_cast<double>(solo.p99)
                        : 0.0)
      .Add("tput_frac_vs_solo",
           solo.victim_rps > 0 ? r.victim_rps / solo.victim_rps : 0.0)
      .Add("attacker_ok", r.attacker_ok)
      .Add("attacker_fail", r.attacker_fail)
      .Add("attacker_cycles", r.attacker_cycles)
      .Add("attacker_throttle_events", r.attacker_throttle_events)
      .Add("attacker_quota_stalls", r.attacker_quota_stalls)
      .Add("attacker_credit_stalls", r.attacker_credit_stalls)
      .Add("unknown_rejects", r.unknown_rejects)
      .Add("victim_live_conns", r.victim_live_conns)
      .Add("victim_live_lanes", r.victim_live_lanes)
      .Add("attacker_live_conns", r.attacker_live_conns)
      .Add("attacker_live_lanes", r.attacker_live_lanes)
      .Add("fingerprint", std::to_string(r.fingerprint));
  if (rerun != nullptr) {
    row.Add("fingerprint_rerun", std::to_string(rerun->fingerprint));
  }
  json->Row(row);
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  IsoParams base;
  base.rpcs = static_cast<int>(flags.Int("rpcs", 1500));
  base.victim_threads = static_cast<int>(flags.Int("victim-threads", 2));
  base.think = flags.Int("think-us", 15) * kMicrosecond;
  base.payload = static_cast<uint32_t>(flags.Int("payload", 64));
  JsonDump json(flags, "tenant_isolation");
  flags.Finish();

  PrintBanner("tenant_isolation: victim vs misbehaving tenants");
  std::printf("victim: %d threads x %d RPCs, %ld us think, %u B payload\n",
              base.victim_threads, base.rpcs,
              static_cast<long>(base.think / kMicrosecond), base.payload);

  const std::pair<const char*, Attack> kProfiles[] = {
      {"hotloop", Attack::kHotLoop},
      {"oversized", Attack::kOversized},
      {"churn", Attack::kChurn},
  };

  // Solo baseline; like every gated profile it runs twice.
  IsoParams solo_p = base;
  const IsoResult solo = RunProfile(solo_p, nullptr);
  const IsoResult solo2 = RunProfile(solo_p, nullptr);

  std::printf("%-10s %9s %6s %10s %10s %10s %9s %8s %8s\n", "config", "v_ok",
              "v_fail", "p50_us", "p99_us", "victim_rps", "atk_ok", "throttl",
              "stalls");
  PrintRow("solo", solo);
  AddRow(&json, "solo", solo_p, solo, &solo2, solo);

  for (const auto& [name, attack] : kProfiles) {
    IsoParams p = base;
    p.attack = attack;
    // The hotloop run's end-of-run tenant census goes into the JSON as the
    // representative per-tenant rows.
    const bool dump_tenants = attack == Attack::kHotLoop;
    const IsoResult r1 = RunProfile(p, dump_tenants ? &json : nullptr);
    const IsoResult r2 = RunProfile(p, nullptr);
    PrintRow(name, r1);
    AddRow(&json, name, p, r1, &r2, solo);
  }

  // Unprotected reference: same hotloop with no tenants registered. Reported
  // only — it documents what the tenant layer protects against.
  IsoParams open_p = base;
  open_p.attack = Attack::kHotLoop;
  open_p.register_tenants = false;
  const IsoResult open = RunProfile(open_p, nullptr);
  PrintRow("open", open);
  AddRow(&json, "open", open_p, open, nullptr, solo);
  std::printf("unprotected hotloop victim p99: %.2fx solo\n",
              solo.p99 > 0 ? static_cast<double>(open.p99) /
                                 static_cast<double>(solo.p99)
                           : 0.0);
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
