// Simulated CPU cores.
//
// A Core is a FIFO-served resource: a simulated thread "executes" by
// occupying its pinned core for a duration. Threads pinned one-per-core never
// queue; oversubscribed threads serialize in FIFO order (a reasonable model
// for the paper's pinned, run-to-completion workloads — no preemption is
// modeled, which we note in DESIGN.md).
//
// Core busy-time is tracked so benches can report CPU utilization, e.g. the
// ">90% of server cycles inside the userspace NIC libraries" observation that
// motivates Fig. 2(b).
//
// Sharding: a node's Cpu (like its Device pipes and Network links) is only
// ever served by events of that node, so under ConfigureSharding every Core
// is touched by exactly one shard — no locks needed. Awaiting Work() from a
// foreign node's event would be a cross-shard race; cross-node interaction
// must go through the fabric (HopToNode) instead.
#ifndef FLOCK_SIM_CPU_H_
#define FLOCK_SIM_CPU_H_

#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/sim/sync.h"

namespace flock::sim {

class Core {
 public:
  explicit Core(Simulator& sim) : server_(sim) {}

  // Occupies the core for `duration`; FIFO among threads sharing the core.
  FifoServer::Awaiter Work(Nanos duration) { return server_.Serve(duration); }

  // A polling pass that found nothing and changed nothing: costs `duration`
  // like Work, but parks the poller until its node can change or its pass
  // boundary at or after `wake_at` comes up (FifoServer::ServeIdle). With
  // `park` false it is exactly Work(duration), so a poller ends every pass
  // at one suspend point.
  FifoServer::IdleAwaiter Idle(Nanos duration, Nanos wake_at = -1,
                               bool park = true) {
    return server_.ServeIdle(duration, wake_at, park);
  }

  Nanos busy_time() const { return server_.busy_time(); }

 private:
  FifoServer server_;
};

// A node's core complex; threads are pinned round-robin by the caller.
class Cpu {
 public:
  Cpu(Simulator& sim, int num_cores) {
    cores_.reserve(static_cast<size_t>(num_cores));
    for (int i = 0; i < num_cores; ++i) {
      cores_.push_back(std::make_unique<Core>(sim));
    }
  }

  int num_cores() const { return static_cast<int>(cores_.size()); }
  Core& core(int i) { return *cores_[static_cast<size_t>(i % num_cores())]; }

  Nanos TotalBusyTime() const {
    Nanos total = 0;
    for (const auto& c : cores_) {
      total += c->busy_time();
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace flock::sim

#endif  // FLOCK_SIM_CPU_H_
