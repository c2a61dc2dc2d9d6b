// Bounded reassembly of segmented payloads (DESIGN.md §16).
//
// Payloads above FlockConfig::segment_threshold arrive as SegMark chunk
// trains (see wire.h). The receiver accumulates them here, keyed by
// {arrival lane, thread_id, seq}: one lane delivers chunks in submission
// order (its ring is FIFO), so in-order accumulation plus "kFirst resets the
// entry" makes whole-extent retransmits safe. Chunks whose train migrated to
// another lane mid-extent become orphans on the old key and are reclaimed by
// timeout.
//
// The pool is bounded (kReassemblyEntries): a server never
// holds more than entries × max_bytes of partial payloads, no matter how
// many clients stream at it. Overflow drops the chunk — the sender's
// watchdog retransmits the extent — and every buffer is reused once grown,
// so steady-state transfers allocate nothing.
//
// Pure host-side bookkeeping over byte buffers — no simulation types — so
// the property fuzz can drive it with torn/reordered/duplicate chunk trains
// directly.
#ifndef FLOCK_FLOCK_SEGMENT_H_
#define FLOCK_FLOCK_SEGMENT_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/logging.h"
#include "src/common/units.h"
#include "src/flock/config.h"
#include "src/flock/wire.h"

namespace flock {
namespace internal {

// Concurrent partially-received extents a server keeps; chunks of further
// extents are dropped (the sender's watchdog retransmits). Buffers are
// lazily grown to max_payload and then reused.
inline constexpr uint32_t kReassemblyEntries = 16;

// Reclamation deadline for partials that stopped making progress (their
// lane died mid-extent): give the watchdog one retry first.
inline Nanos ReassemblyTimeout(const FlockConfig& config) {
  return 2 * config.rpc_timeout;
}

// Effective on-wire chunk size: segment_threshold, so a segmented payload
// (> threshold) always spans at least two chunks, floored so a tiny
// threshold cannot degenerate into per-byte messages.
inline uint32_t SegmentChunkBytes(const FlockConfig& config) {
  return config.segment_threshold < 64 ? 64 : config.segment_threshold;
}

// Whether a `len`-byte payload is segmented: only when it spans two chunks
// or more. Below a 64 B threshold, a payload above it that fits one chunk
// travels whole (a one-chunk train would be marked kFirst and never end).
inline bool Segmented(const FlockConfig& config, uint32_t len) {
  return config.segment_threshold > 0 && len > SegmentChunkBytes(config);
}

// The chunk train a `len`-byte payload travels in: one unsegmented chunk
// unless Segmented, else SegmentChunkBytes chunks.
inline wire::ChunkTrain ChunkTrainFor(const FlockConfig& config, uint32_t len) {
  return wire::ChunkTrain(len, Segmented(config, len) ? SegmentChunkBytes(config) : 0);
}

struct ReassemblyKey {
  const void* lane = nullptr;  // arrival lane: per-lane delivery is FIFO
  uint16_t thread_id = 0;
  uint32_t seq = 0;

  bool operator==(const ReassemblyKey& o) const {
    return lane == o.lane && thread_id == o.thread_id && seq == o.seq;
  }
};

class ReassemblyPool {
 public:
  // Idempotent; called at server start. Entry buffers grow lazily on first
  // use and are then reused, so an idle pool costs only the entry table.
  void Init(uint32_t entries, uint32_t max_bytes) {
    entries_.resize(entries);
    max_bytes_ = max_bytes;
  }

  // Feeds one chunk observed at simulated time `now`. Returns the complete
  // payload (valid until the next Feed/Reclaim) with its length in
  // `*complete_len` when `mark` == kLast finishes a train; nullptr
  // otherwise. Malformed trains (orphan continuation, oversize total,
  // kNone) are counted and ignored — never fatal, the fuzz feeds garbage.
  const uint8_t* Feed(const ReassemblyKey& key, wire::SegMark mark,
                      const uint8_t* data, uint32_t len, Nanos now,
                      uint32_t* complete_len) {
    ++chunks_;
    if (mark == wire::SegMark::kNone) {
      ++orphans_;  // not a chunk; callers handle inline payloads themselves
      return nullptr;
    }
    Entry* entry = FindLive(key);
    if (mark == wire::SegMark::kFirst) {
      if (entry != nullptr) {
        ++resets_;  // retransmit of a train whose partial is still here
        entry->len = 0;
      } else {
        entry = ClaimFree(key);
        if (entry == nullptr) {
          ++dropped_no_entry_;
          return nullptr;
        }
      }
    } else if (entry == nullptr) {
      ++orphans_;  // continuation without a first chunk (lost or reclaimed)
      return nullptr;
    }
    if (uint64_t{entry->len} + len > max_bytes_) {
      ReleaseEntry(entry);
      ++dropped_oversize_;
      return nullptr;
    }
    if (len > 0) {
      if (entry->buf.size() < entry->len + len) {
        const size_t doubled = entry->buf.size() * 2;
        const size_t need = entry->len + len;
        entry->buf.resize(doubled > need ? doubled : need);
      }
      std::memcpy(entry->buf.data() + entry->len, data, len);
      entry->len += len;
    }
    entry->last_progress = now;
    if (mark != wire::SegMark::kLast) {
      return nullptr;
    }
    *complete_len = entry->len;
    ReleaseEntry(entry);  // buffer capacity is kept; bytes stay readable
    ++completed_;
    return entry->buf.data();
  }

  // Drops every partial idle since before `now - timeout`; returns how many.
  uint32_t Reclaim(Nanos now, Nanos timeout) {
    uint32_t dropped = 0;
    for (Entry& entry : entries_) {
      if (entry.live && entry.last_progress + timeout <= now) {
        ReleaseEntry(&entry);
        ++dropped;
      }
    }
    reclaimed_ += dropped;
    return dropped;
  }

  uint32_t in_use() const {
    uint32_t n = 0;
    for (const Entry& entry : entries_) {
      n += entry.live ? 1 : 0;
    }
    return n;
  }

  uint64_t chunks() const { return chunks_; }
  uint64_t completed() const { return completed_; }
  uint64_t orphans() const { return orphans_; }
  uint64_t resets() const { return resets_; }
  uint64_t dropped_no_entry() const { return dropped_no_entry_; }
  uint64_t dropped_oversize() const { return dropped_oversize_; }
  uint64_t reclaimed() const { return reclaimed_; }

 private:
  struct Entry {
    ReassemblyKey key;
    std::vector<uint8_t> buf;  // grown once, then reused across trains
    uint32_t len = 0;
    Nanos last_progress = 0;
    bool live = false;
  };

  Entry* FindLive(const ReassemblyKey& key) {
    for (Entry& entry : entries_) {
      if (entry.live && entry.key == key) {
        return &entry;
      }
    }
    return nullptr;
  }

  Entry* ClaimFree(const ReassemblyKey& key) {
    for (Entry& entry : entries_) {
      if (!entry.live) {
        entry.live = true;
        entry.key = key;
        entry.len = 0;
        return &entry;
      }
    }
    return nullptr;
  }

  void ReleaseEntry(Entry* entry) {
    entry->live = false;
    entry->key = ReassemblyKey{};
  }

  std::vector<Entry> entries_;
  uint32_t max_bytes_ = 0;

  uint64_t chunks_ = 0;
  uint64_t completed_ = 0;
  uint64_t orphans_ = 0;
  uint64_t resets_ = 0;
  uint64_t dropped_no_entry_ = 0;
  uint64_t dropped_oversize_ = 0;
  uint64_t reclaimed_ = 0;
};

}  // namespace internal
}  // namespace flock

#endif  // FLOCK_FLOCK_SEGMENT_H_
