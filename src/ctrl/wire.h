// Wire format for the out-of-band connection control plane (DESIGN.md §10).
//
// Handshake messages travel over the control plane's reliable side channel
// (modelling RDMA-CM over TCP), not over RDMA rings, so the codec here is
// deliberately independent of src/flock/wire.h: fixed-size POD bodies behind
// a checksummed, nonce-carrying header. Everything is pure byte manipulation
// with explicit bounds checks — the decoder is fuzzed by property_test's
// CtrlFuzzProperty and must reject (never crash on) truncated, corrupted or
// replayed messages.
#ifndef FLOCK_CTRL_WIRE_H_
#define FLOCK_CTRL_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/common/logging.h"
#include "src/tenant/tenant.h"

namespace flock::ctrl::wire {

inline constexpr uint32_t kMagic = 0x464C434Bu;  // "FLCK"
inline constexpr uint16_t kVersion = 1;

enum class MsgType : uint16_t {
  kInvalid = 0,
  kConnectRequest = 1,     // client → server: establish all lanes of a handle
  kConnectAccept = 2,      // server → client: QPs, rings, rkeys, bootstrap
  kReconnectRequest = 3,   // client → server: fresh QP pair for a dead lane
  kReconnectAccept = 4,    // server → client: revived lane wiring + credits
  kAddLaneRequest = 5,     // client → server: grow a lazy handle by one lane
  kAddLaneAccept = 6,
  // 7 and 8 are reserved: a removed type's number is never reused.
  kReject = 9,             // any request the receiver cannot honor right now
  kDisconnectRequest = 10, // client → server: orderly close of a whole handle
  kDisconnectAccept = 11,
};

struct MsgHeader {
  uint32_t magic = kMagic;
  uint16_t version = kVersion;
  uint16_t type = 0;
  uint32_t body_len = 0;
  uint32_t checksum = 0;  // FNV-1a over the body bytes
  uint64_t nonce = 0;     // replay guard: the control plane accepts each once
};
static_assert(sizeof(MsgHeader) == 24);

inline constexpr uint32_t kHeaderBytes = sizeof(MsgHeader);
inline constexpr uint32_t kMaxLanesPerMsg = 64;

// Per-lane wiring the client advertises: its QP plus the two client-local
// regions the server RDMA-writes (response ring, control slot).
struct ClientLaneInfo {
  uint32_t qpn = 0;
  uint32_t resp_ring_rkey = 0;
  uint64_t resp_ring_addr = 0;
  uint64_t ctrl_slot_addr = 0;
  uint32_t ctrl_slot_rkey = 0;
  uint32_t pad = 0;
};
static_assert(sizeof(ClientLaneInfo) == 32);

// Per-lane wiring the server answers with: its QP, the two server-local
// regions the client RDMA-writes (request ring, head slot), and the §5.1
// bootstrap decision (activation + initial credits).
struct ServerLaneInfo {
  uint32_t qpn = 0;
  uint32_t req_ring_rkey = 0;
  uint64_t req_ring_addr = 0;
  uint64_t head_slot_addr = 0;
  uint32_t head_slot_rkey = 0;
  uint8_t active = 0;
  uint8_t pad[3] = {};
  uint32_t credits = 0;
  uint32_t pad2 = 0;
};
static_assert(sizeof(ServerLaneInfo) == 40);

struct ConnectRequest {
  int32_t client_node = -1;
  uint32_t num_lanes = 0;
  uint32_t ring_bytes = 0;
  // Tenant identity registered by the handshake (DESIGN.md §15). Occupies
  // the former pad word, so the default (tenant 0) encodes byte-identically
  // to requests without a tenant field.
  uint32_t tenant_id = 0;
  ClientLaneInfo lanes[kMaxLanesPerMsg];
};

struct ConnectAccept {
  uint32_t conn_id = 0;  // the sender key the server filed this handle under
  uint32_t num_lanes = 0;
  // QP provenance on the server side, so the client can charge the right
  // setup cost (CostModel::qp_create vs qp_reset) on the async connect path.
  uint32_t fresh_qps = 0;
  uint32_t recycled_qps = 0;
  ServerLaneInfo lanes[kMaxLanesPerMsg];
};

struct ReconnectRequest {
  int32_t client_node = -1;
  uint32_t conn_id = 0;
  uint32_t lane_index = 0;
  uint32_t pad = 0;
  ClientLaneInfo lane;  // fresh QP; rings/rkeys re-advertised unchanged
};

struct ReconnectAccept {
  uint32_t lane_index = 0;
  uint32_t credits = 0;           // fresh credit bootstrap
  uint32_t grant_cumulative = 0;  // resync point for the client's grants_seen
  uint32_t pad = 0;
  ServerLaneInfo lane;
};

struct AddLaneRequest {
  int32_t client_node = -1;
  uint32_t conn_id = 0;
  uint32_t lane_index = 0;  // index the new lane will occupy (== current count)
  uint32_t ring_bytes = 0;
  // Lane 0's response-ring address, which names the handle: a stale handle
  // whose sender slot a newer handle reused cannot grow that handle.
  uint64_t handle_ring_addr = 0;
  ClientLaneInfo lane;
};

struct AddLaneAccept {
  uint32_t lane_index = 0;
  uint32_t recycled = 0;  // 1 = the server lane came from the recycling pool
  ServerLaneInfo lane;
};

// Orderly whole-handle close (DESIGN.md §15): the client tells the server it
// is done, so sender-slot and tenant admission accounting are reclaimed
// immediately instead of waiting for dead-sender detection to notice the
// departed QPs. Sent by CloseConnection.
struct DisconnectRequest {
  int32_t client_node = -1;
  uint32_t conn_id = 0;
  uint64_t handle_ring_addr = 0;  // lane 0's response ring, as in AddLane
};

struct DisconnectAccept {
  uint32_t lanes_torn = 0;
  uint32_t pad = 0;
};

enum class RejectReason : uint32_t {
  kUnknown = 0,
  kServerNotStarted = 1,
  kBadConnId = 2,
  kBadLane = 3,
  kLaneBusy = 4,      // the lane is mid-dispatch; retry after backoff
  kLaneHealthy = 5,   // reconnect asked for a lane that is not quarantined
  // 6 is reserved: a removed reason's number is never reused.
  // Tenant admission control (DESIGN.md §15):
  kUnknownTenant = 7,         // tenant id never registered (or forged)
  kTenantOverConnections = 8, // tenant at its max_connections ceiling
  kTenantOverLanes = 9,       // tenant at its max_lanes ceiling
};

// A tenant admission verdict: a legitimate refusal connect callers surface
// as nullptr. Every other reject on a connect is a caller bug.
inline bool IsAdmissionReject(RejectReason reason) {
  return reason == RejectReason::kUnknownTenant ||
         reason == RejectReason::kTenantOverConnections ||
         reason == RejectReason::kTenantOverLanes;
}

struct Reject {
  uint32_t reason = 0;
};

inline uint32_t Fnv1a(const uint8_t* data, uint32_t len) {
  uint32_t h = 2166136261u;
  for (uint32_t i = 0; i < len; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

// Maximum encoded message: header + the largest body (ConnectAccept).
inline constexpr uint32_t kMaxMessageBytes =
    kHeaderBytes + static_cast<uint32_t>(sizeof(ConnectAccept));

// Encodes header + body into `buf`; returns the total length.
inline uint32_t EncodeMessage(uint8_t* buf, uint32_t cap, MsgType type,
                              uint64_t nonce, const void* body,
                              uint32_t body_len) {
  FLOCK_CHECK_GE(cap, kHeaderBytes + body_len);
  MsgHeader h;
  h.type = static_cast<uint16_t>(type);
  h.body_len = body_len;
  h.nonce = nonce;
  h.checksum = Fnv1a(static_cast<const uint8_t*>(body), body_len);
  std::memcpy(buf, &h, kHeaderBytes);
  if (body_len > 0) {
    std::memcpy(buf + kHeaderBytes, body, body_len);
  }
  return kHeaderBytes + body_len;
}

// Validates framing (magic, version, body length within the buffer, body
// checksum) and extracts the header. Returns false on anything malformed.
inline bool DecodeHeader(const uint8_t* buf, uint32_t len, MsgHeader* out) {
  if (buf == nullptr || len < kHeaderBytes) {
    return false;
  }
  std::memcpy(out, buf, kHeaderBytes);
  if (out->magic != kMagic || out->version != kVersion) {
    return false;
  }
  if (out->body_len > len - kHeaderBytes) {
    return false;
  }
  if (Fnv1a(buf + kHeaderBytes, out->body_len) != out->checksum) {
    return false;
  }
  return true;
}

// ---- variable-length bodies (lane-array prefix encoding) ----

inline uint32_t ConnectRequestBytes(uint32_t num_lanes) {
  return static_cast<uint32_t>(offsetof(ConnectRequest, lanes)) +
         num_lanes * static_cast<uint32_t>(sizeof(ClientLaneInfo));
}

inline uint32_t ConnectAcceptBytes(uint32_t num_lanes) {
  return static_cast<uint32_t>(offsetof(ConnectAccept, lanes)) +
         num_lanes * static_cast<uint32_t>(sizeof(ServerLaneInfo));
}

inline bool DecodeConnectRequest(const MsgHeader& h, const uint8_t* buf,
                                 ConnectRequest* out) {
  if (h.type != static_cast<uint16_t>(MsgType::kConnectRequest) ||
      h.body_len < offsetof(ConnectRequest, lanes)) {
    return false;
  }
  // The default member initializers make these structs non-trivial in the
  // eyes of -Wclass-memaccess, but they are standard-layout and the byte
  // image is the wire format; the void casts assert that intent.
  std::memcpy(static_cast<void*>(out), buf + kHeaderBytes,
              offsetof(ConnectRequest, lanes));
  if (out->num_lanes == 0 || out->num_lanes > kMaxLanesPerMsg ||
      h.body_len != ConnectRequestBytes(out->num_lanes)) {
    return false;
  }
  if (out->ring_bytes == 0) {
    return false;
  }
  if (out->tenant_id > tenant::kMaxTenantId) {
    return false;  // forged: ids must fit the data-plane stamp
  }
  std::memcpy(out->lanes, buf + kHeaderBytes + offsetof(ConnectRequest, lanes),
              size_t{out->num_lanes} * sizeof(ClientLaneInfo));
  return true;
}

inline bool DecodeConnectAccept(const MsgHeader& h, const uint8_t* buf,
                                ConnectAccept* out) {
  if (h.type != static_cast<uint16_t>(MsgType::kConnectAccept) ||
      h.body_len < offsetof(ConnectAccept, lanes)) {
    return false;
  }
  std::memcpy(static_cast<void*>(out), buf + kHeaderBytes,
              offsetof(ConnectAccept, lanes));
  if (out->num_lanes == 0 || out->num_lanes > kMaxLanesPerMsg ||
      h.body_len != ConnectAcceptBytes(out->num_lanes)) {
    return false;
  }
  std::memcpy(out->lanes, buf + kHeaderBytes + offsetof(ConnectAccept, lanes),
              size_t{out->num_lanes} * sizeof(ServerLaneInfo));
  return true;
}

// ---- fixed-size bodies ----

template <typename T>
inline bool DecodeFixed(const MsgHeader& h, const uint8_t* buf, MsgType type,
                        T* out) {
  if (h.type != static_cast<uint16_t>(type) || h.body_len != sizeof(T)) {
    return false;
  }
  std::memcpy(out, buf + kHeaderBytes, sizeof(T));
  return true;
}

inline bool DecodeReconnectRequest(const MsgHeader& h, const uint8_t* buf,
                                   ReconnectRequest* out) {
  return DecodeFixed(h, buf, MsgType::kReconnectRequest, out) &&
         out->lane_index < kMaxLanesPerMsg;
}

inline bool DecodeReconnectAccept(const MsgHeader& h, const uint8_t* buf,
                                  ReconnectAccept* out) {
  return DecodeFixed(h, buf, MsgType::kReconnectAccept, out);
}

inline bool DecodeAddLaneRequest(const MsgHeader& h, const uint8_t* buf,
                                 AddLaneRequest* out) {
  return DecodeFixed(h, buf, MsgType::kAddLaneRequest, out) &&
         out->lane_index < kMaxLanesPerMsg && out->ring_bytes != 0;
}

inline bool DecodeAddLaneAccept(const MsgHeader& h, const uint8_t* buf,
                                AddLaneAccept* out) {
  return DecodeFixed(h, buf, MsgType::kAddLaneAccept, out);
}

inline bool DecodeDisconnectRequest(const MsgHeader& h, const uint8_t* buf,
                                    DisconnectRequest* out) {
  return DecodeFixed(h, buf, MsgType::kDisconnectRequest, out);
}

inline bool DecodeDisconnectAccept(const MsgHeader& h, const uint8_t* buf,
                                   DisconnectAccept* out) {
  return DecodeFixed(h, buf, MsgType::kDisconnectAccept, out);
}

inline bool DecodeReject(const MsgHeader& h, const uint8_t* buf, Reject* out) {
  return DecodeFixed(h, buf, MsgType::kReject, out);
}

inline uint32_t EncodeReject(uint8_t* buf, uint32_t cap, uint64_t nonce,
                             RejectReason reason) {
  Reject r;
  r.reason = static_cast<uint32_t>(reason);
  return EncodeMessage(buf, cap, MsgType::kReject, nonce, &r, sizeof(r));
}

}  // namespace flock::ctrl::wire

#endif  // FLOCK_CTRL_WIRE_H_
