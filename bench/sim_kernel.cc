// Microbenchmarks for the discrete-event kernel itself.
//
// perf_smoke measures the kernel through the whole Flock stack; this bench
// isolates the primitives the batched-delivery work targets, so a kernel
// regression shows up here before it is diluted by RPC-layer cost:
//
//   * schedule_resume — bare Schedule(0)/dequeue/resume round trips: the cost
//     of one event-queue traversal, the unit everything else is priced in.
//   * notify_fanout_{1,8,64} — Condition::NotifyAll with N parked waiters:
//     exercises wake coalescing (one drain event per timestamp regardless of
//     N; see Simulator::ScheduleWake).
//   * calendar_churn — events spread across the 4096-bucket calendar horizon
//     plus an overflow-heap tail: bucket insert, occupancy scan, refill, and
//     heap merge costs.
//   * idle_pollers — busy-polling procs that almost never find work, written
//     with Core::Idle (empty passes park and cost no events, DESIGN.md §7),
//     against the same pollers written with Core::Work (idle_pollers_work);
//     the two must leave the same fingerprint.
//
// Usage:
//   sim_kernel [--iters=2000000] [--repeats=3] [--shards=8] [--workers=0]
//              [--hop-nodes=16] [--json=<path>]
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rand.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace flock::bench {
namespace {

struct KernelResult {
  double wall_s = 0;
  KernelCounters kernel;
  double events_per_s = 0;
};

// ---- schedule/resume round-trip throughput ----

sim::Proc YieldLoop(sim::Simulator& sim, uint64_t iters, uint64_t* done) {
  for (uint64_t i = 0; i < iters; ++i) {
    co_await sim::Delay(sim, 0);
  }
  ++(*done);
}

KernelResult RunScheduleResume(uint64_t iters) {
  sim::Simulator sim;
  uint64_t done = 0;
  sim.Spawn(YieldLoop(sim, iters, &done));
  const WallTimer timer;
  sim.Run();
  FLOCK_CHECK_EQ(done, 1u);
  KernelResult r;
  r.wall_s = timer.Seconds();
  r.kernel = KernelCounters::Capture(sim);
  r.events_per_s = static_cast<double>(r.kernel.events) / r.wall_s;
  return r;
}

// ---- NotifyAll fan-out ----

sim::Proc FanoutWaiter(sim::Condition& cond, const bool& stop, uint64_t* wakes) {
  while (!stop) {
    co_await cond.Wait();
    ++(*wakes);
  }
}

sim::Proc FanoutNotifier(sim::Simulator& sim, sim::Condition& cond, bool& stop,
                         uint64_t rounds) {
  for (uint64_t i = 0; i < rounds; ++i) {
    cond.NotifyAll();
    // Advance one tick so every waiter re-parks before the next notify.
    co_await sim::Delay(sim, 1);
  }
  stop = true;
  cond.NotifyAll();
}

KernelResult RunNotifyFanout(int waiters, uint64_t rounds) {
  sim::Simulator sim;
  sim::Condition cond(sim);
  bool stop = false;
  uint64_t wakes = 0;
  for (int i = 0; i < waiters; ++i) {
    sim.Spawn(FanoutWaiter(cond, stop, &wakes));
  }
  sim.Spawn(FanoutNotifier(sim, cond, stop, rounds));
  const WallTimer timer;
  sim.Run();
  KernelResult r;
  r.wall_s = timer.Seconds();
  r.kernel = KernelCounters::Capture(sim);
  // Every waiter wakes once per notify round (delivered via wake batches).
  FLOCK_CHECK_GE(wakes, rounds * static_cast<uint64_t>(waiters));
  r.events_per_s = static_cast<double>(wakes) / r.wall_s;  // wakes/s here
  return r;
}

// ---- calendar churn ----

sim::Proc ChurnLoop(sim::Simulator& sim, uint64_t iters, uint64_t* done) {
  // Delays cycle through the calendar horizon and spill into the overflow
  // heap (delay > 4096), exercising bucket insert + occupancy scan + refill
  // + heap merge rather than the now-FIFO fast path.
  static constexpr Nanos kDelays[] = {1, 7, 63, 511, 4095, 9001};
  for (uint64_t i = 0; i < iters; ++i) {
    co_await sim::Delay(sim, kDelays[i % (sizeof(kDelays) / sizeof(kDelays[0]))]);
  }
  ++(*done);
}

KernelResult RunCalendarChurn(uint64_t iters, int procs) {
  sim::Simulator sim;
  uint64_t done = 0;
  for (int p = 0; p < procs; ++p) {
    sim.Spawn(ChurnLoop(sim, iters, &done));
  }
  const WallTimer timer;
  sim.Run();
  FLOCK_CHECK_EQ(done, static_cast<uint64_t>(procs));
  KernelResult r;
  r.wall_s = timer.Seconds();
  r.kernel = KernelCounters::Capture(sim);
  r.events_per_s = static_cast<double>(r.kernel.events) / r.wall_s;
  return r;
}

// ---- idle pollers ----

// 13 pollers on 9 nodes (periods 22, 35 and 70 ns) and one producer per node
// that leaves a unit of work every few microseconds: nearly every pass finds
// nothing. The fingerprint folds every pass that found work (time, node,
// poller) and every core's busy time, in node order.
constexpr int kPollNodes = 9;
constexpr int kPollers = 13;

struct PollNode {
  explicit PollNode(sim::Simulator& sim) : cpu(sim, 2) {}
  sim::Cpu cpu;
  int pending = 0;
  TraceHash found;
};

sim::Proc IdlePoller(sim::Simulator& sim, PollNode& node, int id, int core,
                     Nanos period, bool idle) {
  for (;;) {
    if (node.pending > 0) {
      --node.pending;
      node.found.Mix(static_cast<uint64_t>(sim.Now())).Mix(static_cast<uint64_t>(id));
      co_await node.cpu.core(core).Work(2 * period);
    } else if (idle) {
      co_await node.cpu.core(core).Idle(period);
    } else {
      co_await node.cpu.core(core).Work(period);
    }
  }
}

sim::Proc SparseProducer(sim::Simulator& sim, PollNode& node, uint64_t seed) {
  Rng rng(seed);
  for (;;) {
    co_await sim::Delay(sim, static_cast<Nanos>(rng.NextInRange(2000, 8000)));
    ++node.pending;
  }
}

KernelResult RunIdlePollers(Nanos span, bool idle, uint64_t* fingerprint) {
  static constexpr Nanos kPeriods[] = {22, 35, 70};
  sim::Simulator sim;
  std::vector<std::unique_ptr<PollNode>> nodes;
  for (int n = 0; n < kPollNodes; ++n) {
    nodes.push_back(std::make_unique<PollNode>(sim));
    sim.Spawn(SparseProducer(sim, *nodes.back(), 7 + static_cast<uint64_t>(n)), n);
  }
  for (int p = 0; p < kPollers; ++p) {
    const int n = p % kPollNodes;  // nodes 0-3 get two pollers
    sim.Spawn(IdlePoller(sim, *nodes[static_cast<size_t>(n)], p, p / kPollNodes,
                         kPeriods[p % 3], idle),
              n);
  }
  const WallTimer timer;
  sim.RunUntil(span);
  KernelResult r;
  r.wall_s = timer.Seconds();
  r.kernel = KernelCounters::Capture(sim);
  r.events_per_s = static_cast<double>(r.kernel.events) / r.wall_s;
  TraceHash hash;
  for (const auto& node : nodes) {
    hash.Mix(node->found.value());
    for (int c = 0; c < node->cpu.num_cores(); ++c) {
      hash.Mix(static_cast<uint64_t>(node->cpu.core(c).busy_time()));
    }
  }
  *fingerprint = hash.value();
  return r;
}

// ---- cross-shard hop grid (sharded-kernel scaling sweep) ----

// A ring of nodes, several procs per node, each alternating same-node delays
// with cross-node hops of exactly the lookahead: the worst case for the
// window loop (every window ends in a mailbox drain). Swept over shard
// counts; the event count must not change (the trace is shard-invariant),
// only the wall clock may.
sim::Proc HopWorker(sim::Simulator& sim, int home, int peer, Nanos hop,
                    uint64_t rounds, uint64_t* done) {
  for (uint64_t r = 0; r < rounds; ++r) {
    co_await sim::Delay(sim, static_cast<Nanos>(r % 5));
    co_await sim::HopToNode(sim, peer, hop);
    co_await sim::HopToNode(sim, home, hop);
  }
  ++(*done);
}

KernelResult RunHopGrid(int nodes, int shards, int workers, uint64_t rounds) {
  constexpr Nanos kHop = 450;  // the fabric's min cross-node delay, in spirit
  sim::Simulator sim;
  std::vector<int> node_shard(static_cast<size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    node_shard[static_cast<size_t>(n)] = n % shards;
  }
  sim.ConfigureSharding(shards, node_shard, kHop, workers);
  // Per-node completion counters: a HopWorker finishes on its home node, so
  // each slot is single-writer under sharding (shared counters would race).
  std::vector<uint64_t> done(static_cast<size_t>(nodes), 0);
  for (int n = 0; n < nodes; ++n) {
    for (int k = 0; k < 4; ++k) {
      sim.Spawn(
          HopWorker(sim, n, (n + 1 + k) % nodes, kHop, rounds,
                    &done[static_cast<size_t>(n)]),
          n);
    }
  }
  const WallTimer timer;
  sim.Run();
  uint64_t total_done = 0;
  for (const uint64_t d : done) {
    total_done += d;
  }
  FLOCK_CHECK_EQ(total_done, static_cast<uint64_t>(nodes) * 4);
  KernelResult r;
  r.wall_s = timer.Seconds();
  r.kernel = KernelCounters::Capture(sim);
  r.events_per_s = static_cast<double>(r.kernel.events) / r.wall_s;
  return r;
}

void Report(JsonDump& json, const char* name, const KernelResult& best,
            const char* rate_unit) {
  std::printf("%-18s %14.0f %s  (%lu events, %lu resumes, %lu coalesced, "
              "%lu elided, %lu re-queued, %.1f ms)\n",
              name, best.events_per_s, rate_unit,
              static_cast<unsigned long>(best.kernel.events),
              static_cast<unsigned long>(best.kernel.resumes),
              static_cast<unsigned long>(best.kernel.coalesced_wakes),
              static_cast<unsigned long>(best.kernel.elided_passes),
              static_cast<unsigned long>(best.kernel.requeued_passes),
              best.wall_s * 1e3);
  json.Row({{"case", name},
            {"rate", best.events_per_s},
            {"rate_unit", rate_unit},
            {"events", best.kernel.events},
            {"resumes", best.kernel.resumes},
            {"coalesced_wakes", best.kernel.coalesced_wakes},
            {"elided_passes", best.kernel.elided_passes},
            {"requeued_passes", best.kernel.requeued_passes},
            {"wall_s", best.wall_s}});
}

int Main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t iters = static_cast<uint64_t>(flags.Int("iters", 2000000));
  const int repeats = static_cast<int>(flags.Int("repeats", 3));
  const int max_shards = static_cast<int>(flags.Int("shards", 8));
  const int workers = static_cast<int>(flags.Int("workers", 0));
  const int grid_nodes = static_cast<int>(flags.Int("hop-nodes", 16));
  JsonDump json(flags, "sim_kernel");
  flags.Finish();

  PrintBanner("sim_kernel: event-kernel primitive throughput");
  const auto kRate = [](const KernelResult& r) { return r.events_per_s; };

  Report(json, "schedule_resume", BestOf(repeats, [&] { return RunScheduleResume(iters); }, kRate),
         "events/s");
  const uint64_t rounds = iters / 64;
  Report(json, "notify_fanout_1", BestOf(repeats, [&] { return RunNotifyFanout(1, rounds * 8); }, kRate),
         "wakes/s");
  Report(json, "notify_fanout_8", BestOf(repeats, [&] { return RunNotifyFanout(8, rounds); }, kRate),
         "wakes/s");
  Report(json, "notify_fanout_64", BestOf(repeats, [&] { return RunNotifyFanout(64, rounds / 8); }, kRate),
         "wakes/s");
  Report(json, "calendar_churn", BestOf(repeats, [&] { return RunCalendarChurn(iters / 8, 8); }, kRate),
         "events/s");

  // Parity: parking must not change what the pollers found or their cores'
  // busy time. Best-of picks by rate; every repeat has the same fingerprint.
  const Nanos poll_span = static_cast<Nanos>(iters) * 10;
  uint64_t work_print = 0;
  uint64_t idle_print = 0;
  const auto kWall = [](const KernelResult& r) { return -r.wall_s; };
  Report(json, "idle_pollers_work",
         BestOf(repeats, [&] { return RunIdlePollers(poll_span, false, &work_print); }, kWall),
         "events/s");
  Report(json, "idle_pollers",
         BestOf(repeats, [&] { return RunIdlePollers(poll_span, true, &idle_print); }, kWall),
         "events/s");
  FLOCK_CHECK_EQ(idle_print, work_print)
      << "idle_pollers: parked passes changed the simulation";

  // Shard-scaling sweep: the same hop grid on 1..--shards shards. The event
  // count is asserted shard-invariant; the per-shard rates land in the JSON
  // so the scaling curve rides the shared --json pipeline. --workers forces
  // the pool size (CI's TSan job uses it to guarantee real threads).
  const uint64_t hop_rounds = iters / 200;
  uint64_t base_events = 0;
  for (int shards = 1; shards <= max_shards; shards *= 2) {
    const KernelResult best = BestOf(
        repeats,
        [&] { return RunHopGrid(grid_nodes, shards, workers, hop_rounds); },
        kRate);
    if (shards == 1) {
      base_events = best.kernel.events;
    } else {
      FLOCK_CHECK_EQ(best.kernel.events, base_events)
          << "hop_grid trace changed at " << shards << " shards";
    }
    char name[32];
    std::snprintf(name, sizeof(name), "hop_grid_s%d", shards);
    Report(json, name, best, "events/s");
  }
  return 0;
}

}  // namespace
}  // namespace flock::bench

int main(int argc, char** argv) { return flock::bench::Main(argc, argv); }
