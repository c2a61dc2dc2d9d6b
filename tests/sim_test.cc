// Unit tests for the discrete-event kernel: clock, ordering, coroutine tasks,
// conditions, FIFO servers, semaphores, cores; and the bench CLI tooling built
// on it (bench/bench_util.h).
#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/sim/cpu.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"

namespace flock::sim {
namespace {

Proc RecordAt(Simulator& sim, Nanos delay, std::vector<Nanos>& out) {
  co_await Delay(sim, delay);
  out.push_back(sim.Now());
}

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<Nanos> times;
  sim.Spawn(RecordAt(sim, 50, times));
  sim.Spawn(RecordAt(sim, 10, times));
  sim.Spawn(RecordAt(sim, 30, times));
  sim.Run();
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 10);
  EXPECT_EQ(times[1], 30);
  EXPECT_EQ(times[2], 50);
  EXPECT_EQ(sim.Now(), 50);
}

TEST(SimulatorTest, EqualTimeEventsRunFifo) {
  Simulator sim;
  std::vector<int> order;
  auto mk = [&](int id) -> Proc {
    co_await Delay(sim, 100);
    order.push_back(id);
  };
  for (int i = 0; i < 5; ++i) {
    sim.Spawn(mk(i));
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, RunUntilStopsAtDeadline) {
  Simulator sim;
  std::vector<Nanos> times;
  sim.Spawn(RecordAt(sim, 10, times));
  sim.Spawn(RecordAt(sim, 1000, times));
  sim.RunUntil(500);
  EXPECT_EQ(times.size(), 1u);
  EXPECT_EQ(sim.Now(), 500);
  sim.Run();
  EXPECT_EQ(times.size(), 2u);
  EXPECT_EQ(sim.Now(), 1000);
}

TEST(SimulatorTest, RunForIsRelative) {
  Simulator sim;
  std::vector<Nanos> times;
  sim.Spawn(RecordAt(sim, 100, times));
  sim.RunFor(60);
  EXPECT_EQ(sim.Now(), 60);
  sim.RunFor(60);
  EXPECT_EQ(sim.Now(), 120);
  EXPECT_EQ(times.size(), 1u);
}

Proc Chain(Simulator& sim, std::vector<std::string>& log);
Co<int> Inner(Simulator& sim, std::vector<std::string>& log);
Co<int> Middle(Simulator& sim, std::vector<std::string>& log);

Co<int> Inner(Simulator& sim, std::vector<std::string>& log) {
  log.push_back("inner-start");
  co_await Delay(sim, 5);
  log.push_back("inner-end");
  co_return 7;
}

Co<int> Middle(Simulator& sim, std::vector<std::string>& log) {
  log.push_back("middle-start");
  int v = co_await Inner(sim, log);
  co_return v * 2;
}

Proc Chain(Simulator& sim, std::vector<std::string>& log) {
  int v = co_await Middle(sim, log);
  log.push_back("got " + std::to_string(v));
  co_return;
}

TEST(TaskTest, NestedCoReturnsValuesThroughChain) {
  Simulator sim;
  std::vector<std::string> log;
  sim.Spawn(Chain(sim, log));
  sim.Run();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[3], "got 14");
  EXPECT_EQ(sim.Now(), 5);
}

Co<void> VoidChild(Simulator& sim, int& counter) {
  co_await Delay(sim, 1);
  ++counter;
}

Proc VoidParent(Simulator& sim, int& counter) {
  co_await VoidChild(sim, counter);
  co_await VoidChild(sim, counter);
  ++counter;
}

TEST(TaskTest, VoidCoRuns) {
  Simulator sim;
  int counter = 0;
  sim.Spawn(VoidParent(sim, counter));
  sim.Run();
  EXPECT_EQ(counter, 3);
  EXPECT_EQ(sim.Now(), 2);
}

TEST(SimulatorTest, ShutdownDestroysSuspendedProcs) {
  Simulator sim;
  int done = 0;
  auto waiter = [&]() -> Proc {
    co_await Delay(sim, 1000000);
    ++done;
  };
  sim.Spawn(waiter());
  sim.Spawn(waiter());
  sim.RunFor(10);
  EXPECT_EQ(sim.live_proc_count(), 2u);
  sim.Shutdown();
  EXPECT_EQ(sim.live_proc_count(), 0u);
  EXPECT_EQ(done, 0);
}

TEST(SimulatorTest, FinishedProcsAreDeregistered) {
  Simulator sim;
  auto quick = [&]() -> Proc {
    co_await Delay(sim, 1);
    co_return;
  };
  sim.Spawn(quick());
  sim.Run();
  EXPECT_EQ(sim.live_proc_count(), 0u);
}

TEST(ConditionTest, NotifyAllWakesEveryWaiter) {
  Simulator sim;
  Condition cond(sim);
  int woke = 0;
  auto waiter = [&]() -> Proc {
    co_await cond.Wait();
    ++woke;
  };
  auto notifier = [&]() -> Proc {
    co_await Delay(sim, 10);
    cond.NotifyAll();
  };
  sim.Spawn(waiter());
  sim.Spawn(waiter());
  sim.Spawn(waiter());
  sim.Spawn(notifier());
  sim.Run();
  EXPECT_EQ(woke, 3);
  EXPECT_EQ(sim.Now(), 10);
}

TEST(ConditionTest, NotifyOneWakesOldestWaiter) {
  Simulator sim;
  Condition cond(sim);
  std::vector<int> order;
  auto waiter = [&](int id) -> Proc {
    co_await cond.Wait();
    order.push_back(id);
  };
  sim.Spawn(waiter(1));
  sim.Spawn(waiter(2));
  auto notifier = [&]() -> Proc {
    co_await Delay(sim, 5);
    cond.NotifyOne();
    co_await Delay(sim, 5);
    cond.NotifyOne();
  };
  sim.Spawn(notifier());
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(FifoServerTest, SerializesOverlappingRequests) {
  Simulator sim;
  FifoServer server(sim);
  std::vector<Nanos> done_at;
  auto client = [&](Nanos duration) -> Proc {
    co_await server.Serve(duration);
    done_at.push_back(sim.Now());
  };
  sim.Spawn(client(100));
  sim.Spawn(client(50));
  sim.Spawn(client(25));
  sim.Run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_EQ(done_at[0], 100);
  EXPECT_EQ(done_at[1], 150);
  EXPECT_EQ(done_at[2], 175);
  EXPECT_EQ(server.busy_time(), 175);
  EXPECT_EQ(server.served(), 3u);
}

TEST(FifoServerTest, IdleServerStartsImmediately) {
  Simulator sim;
  FifoServer server(sim);
  Nanos done = -1;
  auto client = [&]() -> Proc {
    co_await Delay(sim, 500);
    co_await server.Serve(10);
    done = sim.Now();
  };
  sim.Spawn(client());
  sim.Run();
  EXPECT_EQ(done, 510);
}

TEST(FifoServerTest, ZeroDurationServes) {
  Simulator sim;
  FifoServer server(sim);
  int count = 0;
  auto client = [&]() -> Proc {
    co_await server.Serve(0);
    ++count;
  };
  sim.Spawn(client());
  sim.Spawn(client());
  sim.Run();
  EXPECT_EQ(count, 2);
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int concurrent = 0;
  int max_concurrent = 0;
  auto client = [&]() -> Proc {
    co_await sem.Acquire();
    ++concurrent;
    max_concurrent = std::max(max_concurrent, concurrent);
    co_await Delay(sim, 100);
    --concurrent;
    sem.Release();
  };
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(client());
  }
  sim.Run();
  EXPECT_EQ(max_concurrent, 2);
  EXPECT_EQ(sim.Now(), 300);  // 6 jobs, 2 at a time, 100 each
}

TEST(SemaphoreTest, FifoHandoff) {
  Simulator sim;
  Semaphore sem(sim, 1);
  std::vector<int> order;
  auto client = [&](int id) -> Proc {
    co_await sem.Acquire();
    order.push_back(id);
    co_await Delay(sim, 10);
    sem.Release();
  };
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(client(i));
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(FifoMutexTest, MutualExclusion) {
  Simulator sim;
  FifoMutex mutex(sim);
  bool held = false;
  int violations = 0;
  auto client = [&]() -> Proc {
    co_await mutex.Acquire();
    if (held) {
      ++violations;
    }
    held = true;
    co_await Delay(sim, 7);
    held = false;
    mutex.Release();
  };
  for (int i = 0; i < 10; ++i) {
    sim.Spawn(client());
  }
  sim.Run();
  EXPECT_EQ(violations, 0);
  EXPECT_EQ(sim.Now(), 70);
}

TEST(CpuTest, PinnedThreadsShareCoreFifo) {
  Simulator sim;
  Cpu cpu(sim, 1);
  std::vector<Nanos> done_at;
  auto thread = [&]() -> Proc {
    co_await cpu.core(0).Work(40);
    done_at.push_back(sim.Now());
  };
  sim.Spawn(thread());
  sim.Spawn(thread());
  sim.Run();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], 40);
  EXPECT_EQ(done_at[1], 80);
  EXPECT_EQ(cpu.TotalBusyTime(), 80);
}

TEST(CpuTest, BusyTimeCountsOnlyElapsedWork) {
  // A reading taken mid-item counts only the part already served, so a
  // utilization window never exceeds 100%.
  Simulator sim;
  Cpu cpu(sim, 1);
  auto thread = [&]() -> Proc { co_await cpu.core(0).Work(100); };
  sim.Spawn(thread());
  sim.Spawn(thread());
  sim.RunUntil(50);
  EXPECT_EQ(cpu.core(0).busy_time(), 50);  // halfway through the first item
  sim.RunUntil(150);
  EXPECT_EQ(cpu.TotalBusyTime(), 150);  // first item done, second half done
  sim.Run();
  EXPECT_EQ(cpu.TotalBusyTime(), 200);
}

TEST(CpuTest, SeparateCoresRunInParallel) {
  Simulator sim;
  Cpu cpu(sim, 2);
  std::vector<Nanos> done_at;
  auto thread = [&](int core) -> Proc {
    co_await cpu.core(core).Work(40);
    done_at.push_back(sim.Now());
  };
  sim.Spawn(thread(0));
  sim.Spawn(thread(1));
  sim.Run();
  ASSERT_EQ(done_at.size(), 2u);
  EXPECT_EQ(done_at[0], 40);
  EXPECT_EQ(done_at[1], 40);
}

TEST(CpuTest, CoreIndexWraps) {
  Simulator sim;
  Cpu cpu(sim, 3);
  EXPECT_EQ(&cpu.core(0), &cpu.core(3));
  EXPECT_EQ(&cpu.core(2), &cpu.core(5));
}

// Determinism: two identical simulations produce identical event counts and
// final clocks.
TEST(SimulatorTest, DeterministicReplay) {
  auto run = [](uint64_t& events, Nanos& end) {
    Simulator sim;
    FifoServer server(sim);
    Condition cond(sim);
    int remaining = 20;
    auto worker = [&](int id) -> Proc {
      for (int i = 0; i < 5; ++i) {
        co_await server.Serve(3 + id % 4);
        co_await Delay(sim, id % 3);
      }
      if (--remaining == 0) {
        cond.NotifyAll();
      }
    };
    for (int i = 0; i < 20; ++i) {
      sim.Spawn(worker(i));
    }
    sim.Run();
    events = sim.events_processed();
    end = sim.Now();
  };
  uint64_t e1, e2;
  Nanos t1, t2;
  run(e1, t1);
  run(e2, t2);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(t1, t2);
}

// ---------------------------------------------------------------------------
// Bench CLIs fail loudly: unread keys, --help, unwritable --json paths.
// ---------------------------------------------------------------------------

bench::Flags MakeFlags(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) {
    argv.push_back(a.data());
  }
  return bench::Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchFlagsTest, ReadKeysPassFinish) {
  bench::Flags flags = MakeFlags({"--sim-ms=5", "--scale"});
  EXPECT_EQ(flags.Int("sim-ms", 20), 5);
  EXPECT_TRUE(flags.Bool("scale", false));
  EXPECT_EQ(flags.Str("json", ""), "");
  flags.Finish();
}

// What a bench does with its flags: read two keys, open --json, Finish(),
// then run (here: exit 1, so a run that should not happen is visible).
void ReadFlagsAndRun(std::vector<std::string> args) {
  bench::Flags flags = MakeFlags(std::move(args));
  flags.Int("sim-ms", 20);
  flags.Bool("scale", true);
  bench::JsonDump json(flags, "test");
  dup2(STDERR_FILENO, STDOUT_FILENO);  // death-test matchers read stderr
  flags.Finish();
  std::fprintf(stderr, "bench ran\n");
  std::exit(1);
}

TEST(BenchFlagsTest, MisspelledKeyExits2) {
  EXPECT_EXIT(ReadFlagsAndRun({"--sim_ms=5"}), testing::ExitedWithCode(2),
              "unknown flag: --sim_ms");
}

TEST(BenchFlagsTest, HelpListsKeysWithDefaultsAndExits0) {
  EXPECT_EXIT(ReadFlagsAndRun({"--help", "--json=/nonexistent-dir/out.json"}),
              testing::ExitedWithCode(0), "--sim-ms=20\n--scale=1\n--json=\n$");
}

TEST(BenchFlagsTest, UnwritableJsonPathExits2BeforeRunning) {
  EXPECT_EXIT(ReadFlagsAndRun({"--json=/nonexistent-dir/out.json"}),
              testing::ExitedWithCode(2), "cannot open --json=/nonexistent-dir/out.json");
}

TEST(BenchFlagsTest, NoJsonFlagWritesNothing) {
  bench::Flags flags = MakeFlags({});
  bench::JsonDump json(flags, "test");
  flags.Finish();
  EXPECT_FALSE(json.enabled());
}

}  // namespace
}  // namespace flock::sim
