// Flock's coalesced message layout (§4.1, Fig. 5).
//
// A message is: Header | (Meta | Data)* | padding | trailing canary.
//
//   * Header carries the total (32-byte-aligned) length, the number of
//     coalesced requests, a random 64-bit canary, and two piggyback fields:
//     the sender's consumer-ring head (so the peer can reclaim ring space
//     without RDMA reads) and, server→client, a credit grant.
//   * Each Meta names the payload size, issuing thread, its per-thread
//     sequence id (matching responses to outstanding requests), and the RPC
//     handler id.
//   * The canary appears in the header and again in the last 8 bytes; the
//     receiver accepts the message only when both match, relying on RDMA
//     writes landing in increasing address order.
//
// Messages are padded to 32-byte multiples so a wrap marker (a bare header)
// always fits at the end of the ring.
//
// All encode/decode routines are pure functions over byte buffers — no
// simulation types — so they are directly unit- and property-testable, and
// identical bytes flow through the simulated RDMA writes.
#ifndef FLOCK_FLOCK_WIRE_H_
#define FLOCK_FLOCK_WIRE_H_

#include <cstdint>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/payload.h"

namespace flock::wire {

inline constexpr uint32_t kAlign = 32;

enum HeaderFlags : uint16_t {
  kFlagWrap = 1 << 0,     // wrap marker: consumer resets to ring offset 0
  kFlagSegment = 1 << 1,  // message carries >= 1 segment chunk (DESIGN.md §16)
};

// Tenant identity stamp (DESIGN.md §15): the upper 12 bits of the header
// flags carry the sender's tenant id, so the receiver can cross-check the
// data plane against the identity registered at handshake time. Tenant 0
// (the default) stamps as zero bits, so its headers carry no tenant bits.
inline constexpr int kFlagTenantShift = 4;
inline constexpr uint16_t kMaxTenantStamp = 0x0FFF;

inline uint16_t PackTenantFlags(uint32_t tenant_id) {
  return static_cast<uint16_t>((tenant_id & kMaxTenantStamp)
                               << kFlagTenantShift);
}

inline uint32_t TenantFromFlags(uint16_t flags) {
  return static_cast<uint32_t>(flags >> kFlagTenantShift) & kMaxTenantStamp;
}

struct MsgHeader {
  uint32_t total_len = 0;  // header..trailing canary inclusive, 32B-aligned
  uint16_t num_reqs = 0;
  uint16_t flags = 0;
  uint64_t canary = 0;
  uint32_t piggyback_head = 0;  // sender's consumer-ring head offset
  uint32_t credit_grant = 0;    // server→client: credits added to the lane
};
static_assert(sizeof(MsgHeader) == 24);

struct ReqMeta {
  uint32_t data_len = 0;
  uint16_t thread_id = 0;
  uint16_t rpc_id = 0;
  uint32_t seq = 0;
};
static_assert(sizeof(ReqMeta) == 12);

inline constexpr uint32_t kHeaderBytes = sizeof(MsgHeader);
inline constexpr uint32_t kMetaBytes = sizeof(ReqMeta);
inline constexpr uint32_t kCanaryBytes = 8;
// A wrap marker is a padded header + canary slot: one aligned unit.
inline constexpr uint32_t kWrapMarkerBytes = kAlign;

inline constexpr uint64_t AlignUp64(uint64_t n) {
  return (n + kAlign - 1) & ~uint64_t{kAlign - 1};
}

// Rounds up in 64 bits and rejects results that no longer fit a uint32_t:
// the old 32-bit form wrapped to 0 for n > 0xFFFFFFE0, turning an oversized
// message into a tiny "valid" one.
inline uint32_t AlignUp(uint32_t n) {
  const uint64_t aligned = AlignUp64(n);
  FLOCK_CHECK_LE(aligned, uint64_t{UINT32_MAX});
  return static_cast<uint32_t>(aligned);
}

// Size of a message carrying payloads totalling `data_bytes` over `n`
// requests, computed in 64 bits — with MB-range payloads the 32-bit sum
// `n * kMetaBytes + data_bytes` can wrap.
inline constexpr uint64_t MessageBytes64(uint64_t n, uint64_t data_bytes) {
  return AlignUp64(kHeaderBytes + n * kMetaBytes + data_bytes + kCanaryBytes);
}

// 32-bit convenience form for callers whose sizes are ring-bounded; rejects
// (rather than wraps on) totals that overflow uint32_t.
inline uint32_t MessageBytes(uint32_t n, uint32_t data_bytes) {
  const uint64_t total = MessageBytes64(n, data_bytes);
  FLOCK_CHECK_LE(total, uint64_t{UINT32_MAX});
  return static_cast<uint32_t>(total);
}

// ---------------------------------------------------------------------------
// Large-payload segmentation (DESIGN.md §16).
//
// Payloads above FlockConfig::segment_threshold travel as a train of chunks,
// each an ordinary coalesced request whose ReqMeta carries a 2-bit segment
// mark in the top bits of data_len (payloads are capped far below 1 GiB, so
// the bits are free; unsegmented metas keep mark 00 and the encoding stays
// byte-identical to the pre-segmentation wire format). All chunks of one RPC
// share {thread_id, seq}; a message containing any chunk sets kFlagSegment
// in its header, and DecodeRequests rejects mark bits when the flag is
// absent, so non-segmented consumers can trust data_len as a plain length.
// ---------------------------------------------------------------------------

enum class SegMark : uint32_t {
  kNone = 0,   // unsegmented request: the whole payload is inline
  kFirst = 1,  // first chunk — resets any stale partial for this key
  kMiddle = 2,
  kLast = 3,  // final chunk — completes the payload
};

inline constexpr uint32_t kSegShift = 30;
inline constexpr uint32_t kSegLenMask = (1u << kSegShift) - 1;

inline uint32_t PackSegLen(SegMark mark, uint32_t len) {
  FLOCK_CHECK_LE(len, kSegLenMask);
  return (static_cast<uint32_t>(mark) << kSegShift) | len;
}

inline constexpr SegMark SegOf(uint32_t data_len) {
  return static_cast<SegMark>(data_len >> kSegShift);
}

inline constexpr uint32_t SegLen(uint32_t data_len) {
  return data_len & kSegLenMask;
}

// Walks a `len`-byte payload as the chunk train it travels in, requests and
// responses alike: with `max_chunk` == 0 one unsegmented chunk (kNone), else
// chunks of at most `max_chunk` bytes marked kFirst, kMiddle..., kLast. Every
// train has a first chunk, even an empty payload's.
//   for (ChunkTrain c(len, max_chunk); !c.done(); c.Next()) { ... }
class ChunkTrain {
 public:
  ChunkTrain(uint32_t len, uint32_t max_chunk) : len_(len), max_chunk_(max_chunk) {}

  bool done() const { return done_; }
  void Next() {
    offset_ += size();
    done_ = offset_ >= len_;
  }
  uint32_t offset() const { return offset_; }
  uint32_t size() const {
    const uint32_t rest = len_ - offset_;
    return max_chunk_ == 0 || rest < max_chunk_ ? rest : max_chunk_;
  }
  bool last() const { return offset_ + size() == len_; }
  // The chunk's ReqMeta::data_len: its size, marked by its place in the train.
  uint32_t data_len() const {
    if (max_chunk_ == 0) {
      return size();
    }
    return PackSegLen(offset_ == 0 ? SegMark::kFirst
                                   : (last() ? SegMark::kLast : SegMark::kMiddle),
                      size());
  }

 private:
  uint32_t len_;
  uint32_t max_chunk_;
  uint32_t offset_ = 0;
  bool done_ = false;
};

// Incremental encoder. Usage:
//   MessageEncoder enc(buf, cap, canary);
//   enc.Add(meta1, data1); enc.Add(meta2, data2);
//   uint32_t len = enc.Seal(piggyback_head, credit_grant);
class MessageEncoder {
 public:
  MessageEncoder(uint8_t* buf, uint32_t capacity, uint64_t canary)
      : buf_(buf), capacity_(capacity), canary_(canary), offset_(kHeaderBytes) {}

  // Whether another request of `data_len` fits in the remaining capacity.
  // Computed in 64 bits: a corrupt data_len near UINT32_MAX must not wrap
  // back under capacity_ and let Add() memcpy past the staging buffer.
  bool Fits(uint32_t data_len) const {
    const uint64_t end =
        uint64_t{offset_} + kMetaBytes + data_len + kCanaryBytes;
    const uint64_t aligned = (end + kAlign - 1) & ~uint64_t{kAlign - 1};
    return aligned <= capacity_;
  }

  void Add(const ReqMeta& meta, const uint8_t* data) {
    // Segment marks in the top bits of data_len carry no bytes.
    const uint32_t len = SegLen(meta.data_len);
    FLOCK_CHECK(Fits(len));
    std::memcpy(buf_ + offset_, &meta, kMetaBytes);
    offset_ += kMetaBytes;
    if (len > 0) {
      std::memcpy(buf_ + offset_, data, len);
      offset_ += len;
    }
    ++num_reqs_;
  }

  // Gathers the payload directly from caller-owned slices into the staging
  // buffer — the single copy of the scatter-gather path (DESIGN.md §16).
  void AddGather(const ReqMeta& meta, const PayloadRef& payload) {
    const uint32_t len = SegLen(meta.data_len);
    FLOCK_CHECK_EQ(len, payload.size());
    FLOCK_CHECK(Fits(len));
    std::memcpy(buf_ + offset_, &meta, kMetaBytes);
    offset_ += kMetaBytes;
    for (uint32_t i = 0; i < payload.num_slices(); ++i) {
      const PayloadRef::Slice& s = payload.slice(i);
      std::memcpy(buf_ + offset_, s.data, s.len);
      offset_ += s.len;
    }
    ++num_reqs_;
  }

  // Writes header and trailing canary; returns the total message length.
  // `flags` carries the tenant stamp on client→server messages (0 otherwise).
  uint32_t Seal(uint32_t piggyback_head, uint32_t credit_grant,
                uint16_t flags = 0) {
    FLOCK_CHECK_GT(num_reqs_, 0u);
    const uint32_t total = AlignUp(offset_ + kCanaryBytes);
    MsgHeader header;
    header.total_len = total;
    header.num_reqs = num_reqs_;
    header.flags = flags;
    header.canary = canary_;
    header.piggyback_head = piggyback_head;
    header.credit_grant = credit_grant;
    std::memcpy(buf_, &header, kHeaderBytes);
    std::memset(buf_ + offset_, 0, total - offset_ - kCanaryBytes);
    std::memcpy(buf_ + total - kCanaryBytes, &canary_, kCanaryBytes);
    return total;
  }

  uint16_t num_reqs() const { return num_reqs_; }
  uint32_t bytes_so_far() const { return offset_; }

 private:
  uint8_t* buf_;
  uint32_t capacity_;
  uint64_t canary_;
  uint32_t offset_;
  uint16_t num_reqs_ = 0;
};

// Writes a wrap marker at `buf`.
inline void EncodeWrapMarker(uint8_t* buf, uint64_t canary) {
  MsgHeader header;
  header.total_len = kWrapMarkerBytes;
  header.num_reqs = 0;
  header.flags = kFlagWrap;
  header.canary = canary;
  std::memcpy(buf, &header, kHeaderBytes);
  std::memcpy(buf + kWrapMarkerBytes - kCanaryBytes, &canary, kCanaryBytes);
}

// Decoded view of one request within a message (points into the buffer).
struct ReqView {
  ReqMeta meta;
  const uint8_t* data = nullptr;
};

// Result of probing a consumer ring position.
enum class ProbeResult {
  kEmpty,       // no message (header length is zero)
  kIncomplete,  // header present but trailing canary not yet written
  kMessage,     // complete message
  kWrap,        // wrap marker: consumer resets to offset 0
};

// `capacity` bounds the readable bytes at `buf`; a (torn or corrupt)
// total_len outside [header+canary, capacity] is reported as kIncomplete
// before the trailing canary is ever dereferenced.
inline ProbeResult ProbeMessage(const uint8_t* buf, uint32_t capacity,
                                MsgHeader* header_out) {
  FLOCK_CHECK_GE(capacity, kHeaderBytes);
  MsgHeader header;
  std::memcpy(&header, buf, kHeaderBytes);
  if (header.total_len == 0) {
    return ProbeResult::kEmpty;
  }
  if (header.total_len < kHeaderBytes + kCanaryBytes ||
      header.total_len > capacity) {
    return ProbeResult::kIncomplete;
  }
  uint64_t trailing = 0;
  std::memcpy(&trailing, buf + header.total_len - kCanaryBytes, kCanaryBytes);
  if (trailing != header.canary) {
    return ProbeResult::kIncomplete;
  }
  *header_out = header;
  return (header.flags & kFlagWrap) ? ProbeResult::kWrap : ProbeResult::kMessage;
}

// Iterates the requests of a complete message. `out` must have room for
// header.num_reqs entries. Returns false on a malformed message.
inline bool DecodeRequests(const uint8_t* buf, const MsgHeader& header, ReqView* out) {
  if (header.total_len < kHeaderBytes + kCanaryBytes) {
    return false;
  }
  // All bounds checks in subtraction form (offset <= data_end is an
  // invariant), so a corrupt data_len near UINT32_MAX cannot wrap an
  // `offset + len` sum back inside the message and escape the check.
  const uint32_t data_end = header.total_len - kCanaryBytes;
  const bool segmented = (header.flags & kFlagSegment) != 0;
  uint32_t offset = kHeaderBytes;
  for (uint16_t i = 0; i < header.num_reqs; ++i) {
    if (kMetaBytes > data_end - offset) {
      return false;
    }
    std::memcpy(&out[i].meta, buf + offset, kMetaBytes);
    offset += kMetaBytes;
    // On-wire bytes per request are the masked length; mark bits without the
    // header flag are corruption, so non-segmented consumers can keep
    // trusting data_len as a plain length.
    const uint32_t len = SegLen(out[i].meta.data_len);
    if (!segmented && len != out[i].meta.data_len) {
      return false;
    }
    if (len > data_end - offset) {
      return false;
    }
    out[i].data = buf + offset;
    offset += len;
  }
  return true;
}

}  // namespace flock::wire

#endif  // FLOCK_FLOCK_WIRE_H_
