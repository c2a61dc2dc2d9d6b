// Sender-side thread scheduling (§5.2, Algorithm 1): periodically re-assign
// application threads to the connection's active lanes, sorting by median
// request size (then request count) and packing by byte quota so lanes do not
// mix small- and large-payload threads (head-of-line avoidance).
//
// The sort/pack/stability primitives are pure functions over ThreadSchedStat
// vectors so unit tests drive them with synthetic stats, no simulator needed.
#ifndef FLOCK_FLOCK_SCHED_SENDER_H_
#define FLOCK_FLOCK_SCHED_SENDER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/units.h"
#include "src/flock/config.h"
#include "src/flock/lane.h"
#include "src/flock/thread.h"
#include "src/sim/task.h"

namespace flock {
namespace internal {

// How often a client re-assigns its threads to lanes (§5.2).
inline constexpr Nanos kThreadSchedInterval = 500 * kMicrosecond;

// One thread's scheduling inputs for an interval (Algorithm 1 line 0: the
// per-thread medians and interval deltas the sort and pack consume).
struct ThreadSchedStat {
  size_t tid;
  uint32_t median_size;
  uint64_t reqs;
  uint64_t bytes;
};

// Sorts per Algorithm 1 (median request size, then request count) — with the
// count quantized so run-to-run noise cannot flip the order. A stable
// ordering keeps thread→QP assignments (and therefore the sets of threads
// that coalesce together) intact across scheduling intervals; reshuffling
// them would break the request/response lockstep that drives coalescing.
// The tid tie-break makes the order strict, so plain sort is equivalent to
// a stable sort here and skips the temp-buffer allocation.
void SortByAlgorithm1(std::vector<ThreadSchedStat>& stats);

// Packs the (sorted) threads onto `active` lanes by byte quota: each lane
// takes threads until it holds total_bytes / |active| bytes, then the next
// lane fills (Algorithm 1 lines 1–5). Writes lane indices into
// (*desired_lane)[tid]; the vector must already span every tid in `stats`.
//
// With `segregate` set (the segmentation regime, DESIGN.md §16) a thread
// whose bytes would blow the quota of a non-empty lane opens the next lane
// instead of joining this one. The sort puts small threads first, so without
// this the one extent thread that crosses the quota boundary lands on the
// lane holding every metadata thread — and each of its chunk trains holds
// that lane's ring for a full train time, multiplying metadata tail latency
// by orders of magnitude. Off by default: the boundary thread placement
// (and thus the default-config trace) is unchanged when no workload mixes
// size classes that far apart.
void PackByByteQuota(const std::vector<ThreadSchedStat>& sorted,
                     const std::vector<uint32_t>& active, uint64_t total_bytes,
                     std::vector<uint32_t>* desired_lane,
                     bool segregate = false);

// Per-lane load aggregates reused across ticks (steady state stays
// allocation-free; see tests/alloc_test.cc).
struct LaneLoadScratch {
  std::vector<uint64_t> bytes;
  std::vector<uint32_t> min_size;
  std::vector<uint32_t> max_size;
};

// Stability check: true if the current assignment already satisfies the
// scheduling goals — every thread on an active lane, per-lane byte loads
// within 2x of the mean, and no lane mixing small- and large-payload
// threads. A healthy assignment is kept as-is: gratuitous migration would
// break the request/response lockstep among the threads sharing a QP, and
// with it the coalescing the whole design is after. `lane_active[i]` flags
// lane i active; `num_active` is how many lanes are (the quota divisor).
bool AssignmentHealthy(const std::vector<ThreadSchedStat>& stats,
                       const std::vector<uint32_t>& desired_lane,
                       const std::vector<uint8_t>& lane_active,
                       size_t num_active, uint64_t total_bytes,
                       LaneLoadScratch* scratch);

// The interval scheduler proc and its per-connection resort. Scratch vectors
// persist across ticks so the hot path allocates nothing.
struct SenderSched {
  std::vector<uint32_t> active_scratch;
  std::vector<ThreadSchedStat> stats_scratch;
  std::vector<uint8_t> lane_active_scratch;
  LaneLoadScratch load_scratch;

  // One tick for one connection: collect stats (this consumes the interval
  // deltas — call exactly once per tick), keep a healthy assignment, or
  // re-sort and re-pack per Algorithm 1. `tenant_bytes_cap` clamps the byte
  // total the pack divides (DESIGN.md §15): a quota-bound tenant is packed by
  // what it may still move this window, not by its offered load.
  void Reschedule(ClientConnState& conn,
                  std::vector<std::unique_ptr<FlockThread>>& threads,
                  const FlockConfig& config,
                  uint64_t tenant_bytes_cap = UINT64_MAX);

  // The client's interval loop: every kThreadSchedInterval, Reschedule each
  // connection in connect order.
  sim::Proc Run(NodeEnv& env, ClientState& client);
};

}  // namespace internal
}  // namespace flock

#endif  // FLOCK_FLOCK_SCHED_SENDER_H_
