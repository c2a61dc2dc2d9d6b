// Client-side failure handling: per-RPC timeouts, exponential-backoff
// retransmission, lost-grant recovery, and terminal failure.
//
// The schedule arithmetic (tick granularity, backoff growth and saturation)
// is pure so tests/watchdog_test.cc verifies it without building a cluster.
#ifndef FLOCK_FLOCK_WATCHDOG_H_
#define FLOCK_FLOCK_WATCHDOG_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"
#include "src/flock/lane.h"
#include "src/sim/task.h"

namespace flock {
namespace internal {

// Retries before an RPC gives up and surfaces ok=false to the caller.
inline constexpr uint32_t kMaxRetries = 5;

// Scan granularity bounds how late a deadline can fire; a quarter of the
// timeout keeps the added latency small relative to the timeout itself.
Nanos WatchdogTick(Nanos rpc_timeout);

// Exponential backoff for attempt number `retries` (the post-increment retry
// count: the first retransmit passes 1). Each attempt waits twice as long as
// the last; the shift saturates so a large retry count (or timeout) cannot
// overflow the signed Nanos into UB and a garbage deadline.
Nanos RetryBackoff(Nanos rpc_timeout, uint32_t retries);

// Retransmits a timed-out RPC: bumps its retry count and deadline, restages
// the retained payload on the thread's current lane, and wakes that lane's
// pump. The server matches responses globally by (thread, seq), so a retry
// on a different lane still completes this RPC.
void RetryPendingRpc(ClientConnState& conn, PendingRpc* rpc);

// Terminal failure after kMaxRetries: removes the RPC from the pending map
// and resolves it with ok == false (ResolveRpc).
void FailPendingRpc(ClientConnState& conn, PendingRpc* rpc);

// The periodic deadline scanner. Scratch persists across ticks so the scan
// allocates nothing in steady state.
struct Watchdog {
  std::vector<PendingRpc*> scratch;

  // Every WatchdogTick, sweep each connection's pending maps and retry or
  // fail every RPC whose deadline passed.
  sim::Proc Run(NodeEnv& env, ClientState& client);
};

}  // namespace internal
}  // namespace flock

#endif  // FLOCK_FLOCK_WATCHDOG_H_
