// Differential test of idle-pass parking (DESIGN.md §7): the same polling
// workload written with Core::Work (every pass an event) and with Core::Idle
// (empty passes parked) must produce identical per-node logs of what each
// pass found and identical core busy times, at every shard count and however
// the run is cut into RunUntil slices.
//
// The workload is built to hit every ordering rule of the kernel:
//  * several pollers per node, with equal (22, 22) and coprime (22, 35)
//    periods, plus a 70 ns poller with a wake_at timer;
//  * producers that deposit work on their node after local delays both
//    shorter and longer than a pass (pushed after and before the pass's
//    completion was queued), and that hop between nodes (hop merges);
//  * pollers that found work, and deposits, wake a consumer (pushes at
//    now, whose order against the pollers' resumes shows in the log);
//  * a mutator on node 0 that deposits directly into node 1 — same shard at
//    every shard count — announcing it with Simulator::TouchNode.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rand.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"

namespace flock::sim {
namespace {

constexpr int kNodes = 8;
constexpr Nanos kLookahead = 200;
constexpr Nanos kEnd = 300 * kMicrosecond;
constexpr Nanos kWakeEvery = 1000;

struct Poller {
  int core;
  Nanos period;
  Nanos wake_every;  // 0 = no wake_at
};
// One core per poller; the consumer works on the core after them. Pollers 0
// and 1 take work from `pending`, poller 2 from `side`; poller 3 only wakes.
constexpr Poller kPollers[] = {
    {0, 22, 0}, {1, 22, 0}, {2, 70, 0}, {3, 35, kWakeEvery}};
constexpr int kNumPollers = sizeof(kPollers) / sizeof(kPollers[0]);

// One logged state change: (time, poller, or -1 for the consumer, -2 for a
// deposit; what it found or added; work left on the node), so a reordering
// of one node's events at one instant shows.
using Record = std::tuple<Nanos, int, int, int>;

struct NodeState {
  explicit NodeState(Simulator& sim) : cpu(sim, kNumPollers + 1), woken(sim) {}
  Cpu cpu;
  Condition woken;
  int pending = 0;
  int side = 0;
  std::vector<Record> log;
  std::vector<Nanos> passes;     // every pass instant (Work variant only)
  std::vector<Nanos> deposits;   // instants work landed on this node
};

struct World {
  World(int shards, bool idle) : idle(idle) {
    std::vector<int> node_shard(kNodes);
    for (int n = 0; n < kNodes; ++n) {
      node_shard[n] = n < 2 ? 0 : n % shards;  // nodes 0 and 1 always share
    }
    sim.ConfigureSharding(shards, node_shard, kLookahead, shards);
    for (int n = 0; n < kNodes; ++n) {
      nodes.push_back(std::make_unique<NodeState>(sim));
    }
  }
  Simulator sim;
  bool idle;
  std::vector<std::unique_ptr<NodeState>> nodes;
  std::vector<Nanos> mutations;  // written by node 0's events only
};

Proc PollLoop(World* w, int node, int id) {
  NodeState& st = *w->nodes[static_cast<size_t>(node)];
  const Poller& p = kPollers[id];
  Core& core = st.cpu.core(p.core);
  Nanos next_wake = p.wake_every > 0 ? w->sim.Now() + p.wake_every : -1;
  for (;;) {
    if (!w->idle) {
      st.passes.push_back(w->sim.Now());
    }
    int found = 0;
    if (next_wake >= 0 && w->sim.Now() >= next_wake) {
      found = 2;
      next_wake = w->sim.Now() + p.wake_every;
    } else if (id < 2 && st.pending > 0) {
      --st.pending;
      found = 1;
    } else if (id == 2 && st.side > 0) {
      --st.side;
      found = 1;
    }
    if (found == 0) {
      if (w->idle) {
        co_await core.Idle(p.period, next_wake);
      } else {
        co_await core.Work(p.period);
      }
      continue;
    }
    st.log.emplace_back(w->sim.Now(), id, found, st.pending);
    st.woken.NotifyAll();  // a push at now from a pass that found work
    co_await core.Work(2 * p.period);
  }
}

Proc Consumer(World* w, int node) {
  NodeState& st = *w->nodes[static_cast<size_t>(node)];
  for (;;) {
    co_await st.woken.Wait();
    st.pending += st.log.size() % 2;  // hands back every other unit
    st.log.emplace_back(w->sim.Now(), -1, 3, st.pending);
    co_await st.cpu.core(kNumPollers).Work(17);
  }
}

// Deposits work after local delays of 1-96 ns (shorter and longer than a
// pass), and every few deposits hops to another node first.
Proc Producer(World* w, int node, uint64_t seed) {
  Rng rng(seed);
  for (;;) {
    co_await Delay(w->sim, static_cast<Nanos>(rng.NextInRange(1, 96)));
    if (rng.NextBelow(4) == 0) {
      const int to = static_cast<int>(rng.NextBelow(kNodes));
      co_await HopToNode(w->sim, to,
                         kLookahead + static_cast<Nanos>(rng.NextBelow(90)));
      node = to;
    }
    NodeState& st = *w->nodes[static_cast<size_t>(node)];
    const int units = 1 + static_cast<int>(rng.NextBelow(3));
    (rng.NextBelow(3) == 0 ? st.side : st.pending) += units;
    st.log.emplace_back(w->sim.Now(), -2, units, st.pending);
    st.deposits.push_back(w->sim.Now());
    st.woken.NotifyAll();
    co_await Delay(w->sim, static_cast<Nanos>(rng.NextInRange(300, 3000)));
  }
}

// Node 0 writes node 1's state directly from an event queued both less and
// more than one of node 1's pass periods earlier, but never exactly one
// period earlier (queued on a pass instant: an unresolvable tie).
Proc Mutator(World* w) {
  Rng rng(99);
  for (;;) {
    co_await Delay(w->sim, static_cast<Nanos>(rng.NextInRange(100, 700)));
    Nanos d = static_cast<Nanos>(rng.NextInRange(1, 200));
    if (d == 22 || d == 35 || d == 70) {
      ++d;
    }
    co_await Delay(w->sim, d);  // the mutating event, queued d before it runs
    w->sim.TouchNode(1);
    NodeState& st = *w->nodes[1];
    st.pending += 1;
    st.log.emplace_back(w->sim.Now(), -2, 1, st.pending);
    w->mutations.push_back(w->sim.Now());
  }
}

struct Outcome {
  std::vector<std::vector<Record>> logs;
  std::vector<Nanos> busy;
  uint64_t events = 0;
  uint64_t elided = 0;
};

// Runs the workload to kEnd; `slice` > 0 cuts it into RunUntil slices of
// that length starting at `offset`.
Outcome RunWorld(World& w, Nanos offset = 0, Nanos slice = 0) {
  for (int n = 0; n < kNodes; ++n) {
    for (int id = 0; id < kNumPollers; ++id) {
      w.sim.Spawn(PollLoop(&w, n, id), n);
    }
    w.sim.Spawn(Consumer(&w, n), n);
    w.sim.Spawn(Producer(&w, n, 1000 + static_cast<uint64_t>(n)), n);
  }
  w.sim.Spawn(Mutator(&w), 0);
  if (slice > 0) {
    for (Nanos t = offset; t < kEnd; t += slice) {
      w.sim.RunUntil(t);
    }
  }
  w.sim.RunUntil(kEnd);
  Outcome out;
  for (const auto& st : w.nodes) {
    out.logs.push_back(st->log);
    for (int c = 0; c <= kNumPollers; ++c) {
      out.busy.push_back(st->cpu.core(c).busy_time());
    }
  }
  out.events = w.sim.events_processed();
  out.elided = w.sim.elided_passes();
  return out;
}

void ExpectSameSimulation(const Outcome& a, const Outcome& b) {
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (size_t n = 0; n < a.logs.size(); ++n) {
    EXPECT_EQ(a.logs[n], b.logs[n]) << "node " << n;
  }
  EXPECT_EQ(a.busy, b.busy);
}

size_t CountIn(const std::vector<Nanos>& at, const std::vector<Nanos>& instants) {
  size_t hits = 0;
  for (const Nanos t : at) {
    hits += std::binary_search(instants.begin(), instants.end(), t) ? 1 : 0;
  }
  return hits;
}

TEST(IdleParkTest, IdlePassesMatchWorkPassesAtEveryShardCount) {
  World ref_world(1, /*idle=*/false);
  const Outcome ref = RunWorld(ref_world);
  EXPECT_EQ(ref.elided, 0u);

  // The reference run reached every rule: work deposited on pass instants
  // of its node, mutations of node 1 on its pass instants, wake passes.
  size_t deposits = 0, on_pass = 0, wakes = 0;
  for (const auto& st : ref_world.nodes) {
    std::vector<Nanos> passes = st->passes;
    std::sort(passes.begin(), passes.end());
    deposits += st->deposits.size();
    on_pass += CountIn(st->deposits, passes);
    for (const Record& r : st->log) {
      wakes += std::get<1>(r) == 3 ? 1 : 0;
    }
  }
  std::vector<Nanos> node1_passes = ref_world.nodes[1]->passes;
  std::sort(node1_passes.begin(), node1_passes.end());
  EXPECT_GT(deposits, 1000u);
  EXPECT_GT(on_pass, 50u);
  EXPECT_GT(CountIn(ref_world.mutations, node1_passes), 20u);
  EXPECT_GT(wakes, 1000u);

  uint64_t idle_events = 0;
  for (const int shards : {1, 2, 4, 8}) {
    World work_world(shards, /*idle=*/false);
    const Outcome work = RunWorld(work_world);
    ExpectSameSimulation(ref, work);
    EXPECT_EQ(ref.events, work.events) << "shards=" << shards;

    World idle_world(shards, /*idle=*/true);
    const Outcome idle = RunWorld(idle_world);
    ExpectSameSimulation(ref, idle);
    EXPECT_GT(idle.elided, ref.events / 8) << "shards=" << shards;
    EXPECT_LT(idle.events, ref.events) << "shards=" << shards;
    if (shards == 1) {
      idle_events = idle.events;
    }
    EXPECT_EQ(idle.events, idle_events) << "shards=" << shards;
  }
}

// Each RunUntil ends with the parked pollers re-queued. (Slicing moves the
// kernel's window boundaries, so the reference is the Work run sliced alike.)
TEST(IdleParkTest, RunUntilSlicesAtEveryOffsetWithinAPeriod) {
  for (Nanos offset = 0; offset < 22; ++offset) {
    World work_world(1, /*idle=*/false);
    const Outcome work = RunWorld(work_world, offset, 5 * kMicrosecond + 3);
    World idle_world(1, /*idle=*/true);
    ExpectSameSimulation(work, RunWorld(idle_world, offset, 5 * kMicrosecond + 3));
  }
  World work_world(2, /*idle=*/false);
  const Outcome work = RunWorld(work_world, 7, 1 * kMicrosecond);
  World idle_world(2, /*idle=*/true);
  ExpectSameSimulation(work, RunWorld(idle_world, 7, 1 * kMicrosecond));
}

// ---------------------------------------------------------------------------
// Equal-period pollers in two phase groups on one node (the server's request
// dispatchers): a group's passes are due together, so the first completion
// resumes its poller behind the second, as a continuation. That continuation
// must leave the other group, whose passes are not due now, parked.
// ---------------------------------------------------------------------------

constexpr Nanos kPhasePeriod = 22;
constexpr Nanos kPhaseOffset = 16;
constexpr Nanos kPhaseEnd = 10 * kMicrosecond;
// Deposits on a group-A pass instant, on a group-B one, and off both.
constexpr Nanos kPhaseDeposits[] = {200 * kPhasePeriod,
                                    kPhaseOffset + 300 * kPhasePeriod, 8003};

struct PhaseWorld {
  explicit PhaseWorld(bool idle) : idle(idle) {}
  Simulator sim;
  Cpu cpu{sim, 4};
  bool idle;
  int pending = 0;
  std::vector<Record> log;
};

Proc PhasePoller(PhaseWorld* w, int id) {
  if (id >= 2) {
    co_await Delay(w->sim, kPhaseOffset);
  }
  Core& core = w->cpu.core(id);
  for (;;) {
    if (w->pending > 0) {
      --w->pending;
      w->log.emplace_back(w->sim.Now(), id, 1, w->pending);
      co_await core.Work(2 * kPhasePeriod);
    } else if (w->idle) {
      co_await core.Idle(kPhasePeriod);
    } else {
      co_await core.Work(kPhasePeriod);
    }
  }
}

Proc PhaseDeposit(PhaseWorld* w, Nanos at) {
  co_await Delay(w->sim, at);
  w->pending += 2;
  w->log.emplace_back(w->sim.Now(), -2, 2, w->pending);
}

Outcome RunPhaseWorld(PhaseWorld& w) {
  for (int id = 0; id < 4; ++id) {
    w.sim.Spawn(PhasePoller(&w, id), 0);
  }
  for (const Nanos at : kPhaseDeposits) {
    w.sim.Spawn(PhaseDeposit(&w, at), 0);
  }
  w.sim.RunUntil(kPhaseEnd);
  Outcome out;
  out.logs.push_back(w.log);
  for (int c = 0; c < 4; ++c) {
    out.busy.push_back(w.cpu.core(c).busy_time());
  }
  out.events = w.sim.events_processed();
  out.elided = w.sim.elided_passes();
  return out;
}

TEST(IdleParkTest, EqualPeriodPollersInTwoPhasesStayParked) {
  PhaseWorld work_world(/*idle=*/false);
  const Outcome work = RunPhaseWorld(work_world);
  PhaseWorld idle_world(/*idle=*/true);
  const Outcome idle = RunPhaseWorld(idle_world);
  ExpectSameSimulation(work, idle);
  EXPECT_EQ(work.logs[0].size(), 3u + 6u);  // three deposits, six units taken
  // Every pass is an event when written with Work; parked, each deposit
  // costs a handful, and the groups do not re-queue each other in between.
  EXPECT_GT(work.events, 4 * kPhaseEnd / kPhasePeriod);
  EXPECT_LE(idle.events, 96u);
}

// ---------------------------------------------------------------------------
// Twins: two pollers on one node with equal period and phase, so every pass
// of one is due with a pass of the other, and a deposit of two units lets
// both find work at one instant. Which twin runs first decides who takes
// which unit, so a kernel that re-queues parked twins in the other order
// than the unparked kernel ran them shows in the log. Deposits land by a
// local delay on a twin pass instant and off one, and by a direct write from
// another node (TouchNode) queued after and before the twins' completions,
// which re-queues the twins as passes whose completion fired and as passes
// still to complete.
// ---------------------------------------------------------------------------

constexpr Nanos kTwinPeriod = 22;
constexpr Nanos kTwinEnd = 10 * kMicrosecond;
constexpr Nanos kTwinLocalDeposits[] = {200 * kTwinPeriod, 4003};
// (instant, lag): the writing event is queued `lag` before it runs.
constexpr Nanos kTwinRemoteDeposits[][2] = {{250 * kTwinPeriod, 5},
                                            {300 * kTwinPeriod, 30}};

struct TwinWorld {
  explicit TwinWorld(bool idle) : idle(idle) {}
  Simulator sim;
  Cpu cpu{sim, 2};
  bool idle;
  int pending = 0;
  std::vector<Record> log;
};

Proc TwinPoller(TwinWorld* w, int id) {
  Core& core = w->cpu.core(id);
  for (;;) {
    if (w->pending > 0) {
      --w->pending;
      w->log.emplace_back(w->sim.Now(), id, 1, w->pending);
      co_await core.Work(2 * kTwinPeriod);
    } else if (w->idle) {
      co_await core.Idle(kTwinPeriod);
    } else {
      co_await core.Work(kTwinPeriod);
    }
  }
}

Proc TwinDeposit(TwinWorld* w, Nanos at, Nanos lag, bool remote) {
  co_await Delay(w->sim, at - lag);
  co_await Delay(w->sim, lag);
  if (remote) {
    w->sim.TouchNode(0);
  }
  w->pending += 2;
  w->log.emplace_back(w->sim.Now(), -2, 2, w->pending);
}

Outcome RunTwinWorld(TwinWorld& w) {
  for (int id = 0; id < 2; ++id) {
    w.sim.Spawn(TwinPoller(&w, id), 0);
  }
  for (const Nanos at : kTwinLocalDeposits) {
    w.sim.Spawn(TwinDeposit(&w, at, 0, /*remote=*/false), 0);
  }
  for (const auto& [at, lag] : kTwinRemoteDeposits) {
    w.sim.Spawn(TwinDeposit(&w, at, lag, /*remote=*/true), 1);
  }
  w.sim.RunUntil(kTwinEnd);
  Outcome out;
  out.logs.push_back(w.log);
  for (int c = 0; c < 2; ++c) {
    out.busy.push_back(w.cpu.core(c).busy_time());
  }
  out.events = w.sim.events_processed();
  out.elided = w.sim.elided_passes();
  return out;
}

TEST(IdleParkTest, TwinPollersFindingWorkAtOneInstantKeepTheirOrder) {
  TwinWorld work_world(/*idle=*/false);
  const Outcome work = RunTwinWorld(work_world);
  TwinWorld idle_world(/*idle=*/true);
  const Outcome idle = RunTwinWorld(idle_world);
  ExpectSameSimulation(work, idle);
  EXPECT_GT(idle.elided, 0u);
  // Every deposit was taken by both twins at one instant.
  const std::vector<Record>& log = work.logs[0];
  size_t twin_instants = 0;
  for (size_t i = 1; i < log.size(); ++i) {
    const Record& a = log[i - 1];
    const Record& b = log[i];
    if (std::get<0>(a) == std::get<0>(b) && std::get<1>(a) >= 0 &&
        std::get<1>(b) >= 0) {
      ++twin_instants;
    }
  }
  EXPECT_EQ(log.size(), 4u * 3u);
  EXPECT_EQ(twin_instants, 4u);
}

// ---------------------------------------------------------------------------
// The two orderings the kernel cannot recover fail a FLOCK_CHECK (DESIGN.md
// §7). Node 1 runs idle pollers of period 22, parked from their first pass
// at t=0, so 440 is a pass instant of each; node 0 mutates node 1 directly
// at t=440 from an event queued `lag` earlier.
// ---------------------------------------------------------------------------

constexpr Nanos kTiePeriod = 22;
constexpr Nanos kTieAt = 440;

Proc IdlePoller(Core* core) {
  for (;;) {
    co_await core->Idle(kTiePeriod);
  }
}

Proc MutateNode1(Simulator* sim, Nanos lag) {
  co_await Delay(*sim, kTieAt - lag);
  co_await Delay(*sim, lag);  // the mutating event, queued `lag` before it runs
  sim->TouchNode(1);
}

void RunTie(int pollers, Nanos lag) {
  Simulator sim;
  Cpu cpu(sim, pollers);
  for (int i = 0; i < pollers; ++i) {
    sim.Spawn(IdlePoller(&cpu.core(i)), 1);
  }
  sim.Spawn(MutateNode1(&sim, lag), 0);
  sim.RunUntil(2 * kTieAt);
}

TEST(IdleParkDeathTest, MutationQueuedExactlyOnePeriodAheadAborts) {
  // The pass's completion and the mutating event were both queued at 418:
  // which of the two came first is recorded nowhere.
  EXPECT_DEATH(RunTie(/*pollers=*/1, /*lag=*/kTiePeriod),
               "pushed on a pass instant of its poller");
}

TEST(IdleParkDeathTest, SameInstantMutationWithTwoPassesDueAborts) {
  // Pushed at 440 itself: both completions fired before it, but whether a
  // pass resumed inline or behind the mutation depends on the order of
  // their resumes at 440, which is not recorded either.
  EXPECT_DEATH(RunTie(/*pollers=*/2, /*lag=*/0),
               "pushed at the same instant");
}

TEST(IdleParkDeathTest, NeighbouringLagsRunCleanly) {
  // The same worlds one nanosecond off either tie resolve exactly.
  RunTie(/*pollers=*/1, kTiePeriod - 1);
  RunTie(/*pollers=*/1, kTiePeriod + 1);
  RunTie(/*pollers=*/2, 1);
  RunTie(/*pollers=*/1, 0);
}

}  // namespace
}  // namespace flock::sim
