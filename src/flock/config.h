// Tunables for the Flock runtime. Defaults follow §5–§8 of the paper.
#ifndef FLOCK_FLOCK_CONFIG_H_
#define FLOCK_FLOCK_CONFIG_H_

#include <cstdint>

#include "src/common/units.h"

namespace flock {

struct FlockConfig {
  // ---- receiver-side QP scheduling (§5.1) ----
  // Maximum QPs the server keeps active; 256 avoids RNIC cache thrashing
  // (chosen from Fig. 2(a), §8.1).
  uint32_t max_active_qps = 256;
  // Credits granted per QP at bootstrap and per renewal (§5.1, default 32).
  // A leader requests renewal once half of them are consumed.
  uint32_t credits = 32;

  // ---- sender-side thread scheduling (§5.2) ----
  bool sender_thread_scheduling = true;

  // ---- Flock synchronization (§4.2) ----
  // Bound on requests coalesced into one message (leader-progress bound).
  uint32_t max_coalesce = 16;
  // Set false to ablate coalescing (Fig. 10): every request is its own
  // message even when the QP is shared.
  bool coalescing = true;

  // ---- rings and payload bounds (§4.1) ----
  uint32_t ring_bytes = 256 * 1024;
  // Largest single RPC payload (request or response).
  uint32_t max_payload = 8 * 1024;

  // Response-dispatcher threads per client node (§4.3: one dispatcher can
  // serve many QPs).
  int response_dispatchers = 1;

  // Server-side execution model (§4.3): 0 = the request dispatchers execute
  // RPC handlers inline; N > 0 = dispatchers only detect messages and hand
  // gathered batches to an application-managed pool of N RPC workers running
  // on the cores above the dispatchers'.
  int server_workers = 0;

  // ---- failure handling (§7) ----
  // Per-RPC timeout before a retry is attempted; exponential backoff doubles
  // it per attempt, and an RPC fails after internal::kMaxRetries retries.
  // Must be positive: every RPC carries a deadline, every client runs the
  // retry watchdog and every connection its reconnect daemon (DESIGN.md §8).
  Nanos rpc_timeout = 5 * kMillisecond;

  // ---- scatter-gather payload path & segmentation (DESIGN.md §16) ----
  // Master switch: payloads above this many bytes travel as a train of
  // segment chunks (wire::SegMark) instead of one inline request, letting
  // max_payload exceed the ring's single-message bound (ring_bytes / 2).
  // 0 = segmentation off — no chunking, no reassembly state, no ctrl-slot
  // head reports; traces stay bit-identical to the pre-segmentation build.
  // When non-zero it must be set identically on both ends of a connection.
  // Chunks are segment_threshold bytes on the wire (floored at 64 B). Small
  // RPCs from other threads coalesce between chunks (Alg. 1 packs by size),
  // so the threshold bounds head-of-line blocking the same way the MTU does
  // for a NIC.
  uint32_t segment_threshold = 0;
};

}  // namespace flock

#endif  // FLOCK_FLOCK_CONFIG_H_
