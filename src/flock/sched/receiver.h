// Receiver-side QP scheduling (§5.1): credit grants through per-lane control
// slots, renewal handling, and the periodic MAX_AQP redistribution that keeps
// the active-QP budget proportional to each sender's utilization. The
// client-side halves of the credit protocol (renewal requests, applying a
// written control slot) live here too so the whole grant loop reads in one
// place.
#ifndef FLOCK_FLOCK_SCHED_RECEIVER_H_
#define FLOCK_FLOCK_SCHED_RECEIVER_H_

#include <cstddef>
#include <vector>

#include "src/common/units.h"
#include "src/flock/config.h"
#include "src/flock/lane.h"
#include "src/sim/task.h"
#include "src/verbs/types.h"

namespace flock {
namespace internal {

// How often the server's QP scheduler redistributes active QPs (§5.1).
inline constexpr Nanos kQpSchedInterval = 200 * kMicrosecond;

// RDMA-writes the lane's control slot (cumulative grant + activation bit) to
// the client. `signaled` is the liveness-probe variant: a dead peer QP
// answers with an error completion, which quarantines the lane.
void WriteCtrlSlot(NodeEnv& env, ServerLane& lane, ServerStats& stats,
                   bool signaled = false);

// Builds the lane's credit-renewal write-with-imm and marks the renewal in
// flight. Posted by MaybeRenewCredits, and re-posted by the watchdog when a
// retry finds the lane starved at zero credits (a lost renewal or grant).
verbs::SendWr RenewalWr(ClientLane& lane);

// Appends a credit-renewal write-with-imm to `wrs` once the lane has consumed
// half its credits (§5.1 + §7); piggybacked on the pump's doorbell.
void MaybeRenewCredits(const FlockConfig& config, ClientLane& lane,
                       verbs::SendWr* wrs, size_t* nwrs);

// Applies the server-written control slot to the client lane: new grants and
// activation flips. Returns whether it changed anything (a dispatcher pass
// that changed nothing may park, DESIGN.md §7).
bool ApplyCtrlSlot(NodeEnv& env, ClientLane& lane);

// The receiver scheduler proc and its periodic redistribution sweep. The
// scratch vector persists across sweeps to keep the hot path allocation-free.
struct ReceiverSched {
  std::vector<ServerLane*> order_scratch;

  // Core-0 scheduler loop: drains renewal imms from the RCQ, grants credits,
  // polls the send CQ for this node's own completions, and redistributes the
  // AQP budget every kQpSchedInterval.
  sim::Proc Run(NodeEnv& env, ServerState& server);

  // One §5.1 sweep: recompute per-sender utilization, tear down senders
  // condemned by the dead-sender rule (TearDownOneSender), probe quiet ones,
  // and re-partition MAX_AQP proportionally (called by Run on its interval
  // and by the membership listener on a departure).
  void Redistribute(NodeEnv& env, ServerState& server);
};

}  // namespace internal
}  // namespace flock

#endif  // FLOCK_FLOCK_SCHED_RECEIVER_H_
