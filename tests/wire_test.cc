// Unit and property tests for the coalesced message codec and the ring
// buffer protocol (§4.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/payload.h"
#include "src/common/rand.h"
#include "src/flock/ring.h"
#include "src/flock/wire.h"

namespace flock {
namespace {

std::vector<uint8_t> Payload(size_t n, uint8_t seed) {
  std::vector<uint8_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<uint8_t>(seed + i);
  }
  return v;
}

struct Chunk {
  uint32_t offset;
  uint32_t size;
  wire::SegMark mark;
  bool operator==(const Chunk&) const = default;
};

std::vector<Chunk> Walk(uint32_t len, uint32_t max_chunk) {
  std::vector<Chunk> out;
  for (wire::ChunkTrain c(len, max_chunk); !c.done(); c.Next()) {
    EXPECT_EQ(wire::SegLen(c.data_len()), c.size());
    EXPECT_EQ(c.last(), c.offset() + c.size() == len);
    out.push_back({c.offset(), c.size(), wire::SegOf(c.data_len())});
  }
  return out;
}

TEST(WireTest, ChunkTrainMarksEveryChunkByItsPlace) {
  using wire::SegMark;
  // Unsegmented: one chunk, plain length, even when empty.
  EXPECT_EQ(Walk(0, 0), (std::vector<Chunk>{{0, 0, SegMark::kNone}}));
  EXPECT_EQ(Walk(100, 0), (std::vector<Chunk>{{0, 100, SegMark::kNone}}));
  // Segmented: first, middles, a short last chunk.
  EXPECT_EQ(Walk(10, 4), (std::vector<Chunk>{{0, 4, SegMark::kFirst},
                                             {4, 4, SegMark::kMiddle},
                                             {8, 2, SegMark::kLast}}));
  // An exact multiple has no empty tail chunk.
  EXPECT_EQ(Walk(8, 4), (std::vector<Chunk>{{0, 4, SegMark::kFirst},
                                            {4, 4, SegMark::kLast}}));
}

TEST(WireTest, MessageBytesIsAligned) {
  for (uint32_t n = 1; n < 20; ++n) {
    for (uint32_t bytes : {0u, 1u, 63u, 64u, 100u, 4096u}) {
      EXPECT_EQ(wire::MessageBytes(n, bytes) % wire::kAlign, 0u);
      EXPECT_GE(wire::MessageBytes(n, bytes),
                wire::kHeaderBytes + n * wire::kMetaBytes + bytes + wire::kCanaryBytes);
    }
  }
}

TEST(WireTest, EncodeDecodeSingleRequest) {
  std::vector<uint8_t> buf(1024, 0);
  auto payload = Payload(100, 7);
  wire::MessageEncoder enc(buf.data(), 1024, 0xabcdef);
  wire::ReqMeta meta{100, 3, 9, 77};
  enc.Add(meta, payload.data());
  const uint32_t len = enc.Seal(1234, 5);

  wire::MsgHeader header;
  ASSERT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header), wire::ProbeResult::kMessage);
  EXPECT_EQ(header.total_len, len);
  EXPECT_EQ(header.num_reqs, 1);
  EXPECT_EQ(header.piggyback_head, 1234u);
  EXPECT_EQ(header.credit_grant, 5u);

  wire::ReqView view;
  ASSERT_TRUE(wire::DecodeRequests(buf.data(), header, &view));
  EXPECT_EQ(view.meta.data_len, 100u);
  EXPECT_EQ(view.meta.thread_id, 3);
  EXPECT_EQ(view.meta.rpc_id, 9);
  EXPECT_EQ(view.meta.seq, 77u);
  EXPECT_EQ(std::memcmp(view.data, payload.data(), 100), 0);
}

TEST(WireTest, CoalescedMessageRoundTrips) {
  std::vector<uint8_t> buf(8192, 0);
  wire::MessageEncoder enc(buf.data(), 8192, 42);
  std::vector<std::vector<uint8_t>> payloads;
  for (uint32_t i = 0; i < 10; ++i) {
    payloads.push_back(Payload(16 * (i + 1), static_cast<uint8_t>(i)));
    wire::ReqMeta meta{static_cast<uint32_t>(payloads.back().size()),
                       static_cast<uint16_t>(i), static_cast<uint16_t>(i * 2), i + 100};
    enc.Add(meta, payloads.back().data());
  }
  enc.Seal(0, 0);

  wire::MsgHeader header;
  ASSERT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header), wire::ProbeResult::kMessage);
  ASSERT_EQ(header.num_reqs, 10);
  std::vector<wire::ReqView> views(10);
  ASSERT_TRUE(wire::DecodeRequests(buf.data(), header, views.data()));
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(views[i].meta.seq, i + 100);
    ASSERT_EQ(views[i].meta.data_len, payloads[i].size());
    EXPECT_EQ(std::memcmp(views[i].data, payloads[i].data(), payloads[i].size()), 0);
  }
}

TEST(WireTest, IncompleteWithoutTrailingCanary) {
  std::vector<uint8_t> buf(1024, 0);
  auto payload = Payload(64, 1);
  wire::MessageEncoder enc(buf.data(), 1024, 0x1111);
  enc.Add(wire::ReqMeta{64, 0, 0, 1}, payload.data());
  const uint32_t len = enc.Seal(0, 0);
  // Corrupt the trailing canary: the message must not be accepted.
  buf[len - 1] ^= 0xff;
  wire::MsgHeader header;
  EXPECT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header), wire::ProbeResult::kIncomplete);
}

TEST(WireTest, ZeroLengthHeaderIsEmpty) {
  std::vector<uint8_t> buf(256, 0);
  wire::MsgHeader header;
  EXPECT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header), wire::ProbeResult::kEmpty);
}

TEST(WireTest, WrapMarkerDetected) {
  std::vector<uint8_t> buf(256, 0);
  wire::EncodeWrapMarker(buf.data(), 99);
  wire::MsgHeader header;
  EXPECT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header), wire::ProbeResult::kWrap);
}

TEST(WireTest, ZeroLengthPayloadRequests) {
  std::vector<uint8_t> buf(512, 0);
  wire::MessageEncoder enc(buf.data(), 512, 1);
  enc.Add(wire::ReqMeta{0, 1, 2, 3}, nullptr);
  enc.Add(wire::ReqMeta{0, 4, 5, 6}, nullptr);
  enc.Seal(0, 0);
  wire::MsgHeader header;
  ASSERT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header), wire::ProbeResult::kMessage);
  std::vector<wire::ReqView> views(2);
  ASSERT_TRUE(wire::DecodeRequests(buf.data(), header, views.data()));
  EXPECT_EQ(views[0].meta.thread_id, 1);
  EXPECT_EQ(views[1].meta.seq, 6u);
}

// Regression: data_len values near UINT32_MAX used to wrap the 32-bit
// "offset + meta + data_len" sums in DecodeRequests and pass the bounds
// checks, yielding request views far outside the message buffer.
TEST(WireTest, DecodeRejectsOverflowingDataLen) {
  std::vector<uint8_t> buf(1024, 0);
  auto payload = Payload(64, 3);
  wire::MessageEncoder enc(buf.data(), 1024, 0x2222);
  enc.Add(wire::ReqMeta{64, 1, 2, 3}, payload.data());
  enc.Seal(0, 0);
  wire::MsgHeader header;
  ASSERT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header),
            wire::ProbeResult::kMessage);
  // Corrupt the first request's data_len to a huge value (meta layout starts
  // right after the header; data_len is its first field).
  const uint32_t evil = 0xFFFFFFF0u;
  std::memcpy(buf.data() + wire::kHeaderBytes, &evil, sizeof(evil));
  wire::ReqView view;
  EXPECT_FALSE(wire::DecodeRequests(buf.data(), header, &view));
}

// Regression: total_len values larger than the readable region used to make
// ProbeMessage dereference the trailing canary out of bounds; values smaller
// than header+canary wrapped the canary offset computation.
TEST(WireTest, ProbeRejectsOutOfBoundsTotalLen) {
  std::vector<uint8_t> buf(64, 0);
  wire::MsgHeader header;
  uint32_t evil = 1024;  // beyond the 64-byte capacity
  std::memcpy(buf.data(), &evil, sizeof(evil));
  EXPECT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header),
            wire::ProbeResult::kIncomplete);
  evil = wire::kHeaderBytes;  // too small to hold header + canary
  std::memcpy(buf.data(), &evil, sizeof(evil));
  EXPECT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header),
            wire::ProbeResult::kIncomplete);
}

TEST(WireTest, FitsRespectsCapacity) {
  std::vector<uint8_t> buf(128, 0);
  wire::MessageEncoder enc(buf.data(), 128, 1);
  EXPECT_TRUE(enc.Fits(32));
  enc.Add(wire::ReqMeta{32, 0, 0, 0}, Payload(32, 0).data());
  EXPECT_FALSE(enc.Fits(64));
}

// Regression: the 32-bit "offset + data_len" sum in Fits used to wrap for
// data_len near UINT32_MAX and report that the request fits.
TEST(WireTest, FitsRejectsHugeDataLen) {
  std::vector<uint8_t> buf(128, 0);
  wire::MessageEncoder enc(buf.data(), 128, 1);
  EXPECT_FALSE(enc.Fits(0xFFFFFFF0u));
  EXPECT_FALSE(enc.Fits(UINT32_MAX));
}

// Regression: the 32-bit AlignUp/MessageBytes used to wrap for sizes near
// UINT32_MAX, turning an oversized message into a tiny "valid" one. The
// 64-bit forms must compute the true size without wrapping.
TEST(WireTest, MessageBytes64DoesNotWrap) {
  EXPECT_EQ(wire::AlignUp64(0xFFFFFFF1ull), 0x100000000ull);
  EXPECT_GT(wire::MessageBytes64(1, 0xFFFFFFF0ull), uint64_t{UINT32_MAX});
  // 5 MB extents land well inside u64 but far outside the old u16*u32 math.
  const uint64_t five_mb = 5ull * 1024 * 1024;
  EXPECT_EQ(wire::MessageBytes64(1, five_mb),
            wire::AlignUp64(wire::kHeaderBytes + wire::kMetaBytes + five_mb +
                            wire::kCanaryBytes));
}

TEST(WireTest, SegmentMarkPackRoundTrip) {
  for (wire::SegMark mark : {wire::SegMark::kNone, wire::SegMark::kFirst,
                             wire::SegMark::kMiddle, wire::SegMark::kLast}) {
    for (uint32_t len : {0u, 1u, 8192u, wire::kSegLenMask}) {
      const uint32_t packed = wire::PackSegLen(mark, len);
      EXPECT_EQ(wire::SegOf(packed), mark);
      EXPECT_EQ(wire::SegLen(packed), len);
    }
  }
  // kNone packing is the identity: unsegmented metas stay byte-identical.
  EXPECT_EQ(wire::PackSegLen(wire::SegMark::kNone, 1234u), 1234u);
}

TEST(WireTest, SegmentedChunksRoundTrip) {
  std::vector<uint8_t> buf(4096, 0);
  wire::MessageEncoder enc(buf.data(), 4096, 0x5e6);
  auto first = Payload(512, 1);
  auto mid = Payload(512, 2);
  auto last = Payload(100, 3);
  enc.Add(wire::ReqMeta{wire::PackSegLen(wire::SegMark::kFirst, 512), 7, 9, 42},
          first.data());
  enc.Add(wire::ReqMeta{wire::PackSegLen(wire::SegMark::kMiddle, 512), 7, 9, 42},
          mid.data());
  enc.Add(wire::ReqMeta{wire::PackSegLen(wire::SegMark::kLast, 100), 7, 9, 42},
          last.data());
  enc.Seal(0, 0, wire::kFlagSegment);

  wire::MsgHeader header;
  ASSERT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header),
            wire::ProbeResult::kMessage);
  EXPECT_NE(header.flags & wire::kFlagSegment, 0);
  ASSERT_EQ(header.num_reqs, 3);
  std::vector<wire::ReqView> views(3);
  ASSERT_TRUE(wire::DecodeRequests(buf.data(), header, views.data()));
  EXPECT_EQ(wire::SegOf(views[0].meta.data_len), wire::SegMark::kFirst);
  EXPECT_EQ(wire::SegOf(views[1].meta.data_len), wire::SegMark::kMiddle);
  EXPECT_EQ(wire::SegOf(views[2].meta.data_len), wire::SegMark::kLast);
  EXPECT_EQ(wire::SegLen(views[2].meta.data_len), 100u);
  EXPECT_EQ(std::memcmp(views[0].data, first.data(), 512), 0);
  EXPECT_EQ(std::memcmp(views[1].data, mid.data(), 512), 0);
  EXPECT_EQ(std::memcmp(views[2].data, last.data(), 100), 0);
}

// Mark bits without kFlagSegment in the header are corruption: a
// non-segmented consumer must not misread a marked data_len as a length.
TEST(WireTest, DecodeRejectsMarkBitsWithoutSegmentFlag) {
  std::vector<uint8_t> buf(1024, 0);
  auto payload = Payload(64, 5);
  wire::MessageEncoder enc(buf.data(), 1024, 0x3333);
  enc.Add(wire::ReqMeta{wire::PackSegLen(wire::SegMark::kFirst, 64), 1, 2, 3},
          payload.data());
  enc.Seal(0, 0);  // flags deliberately omit kFlagSegment
  wire::MsgHeader header;
  ASSERT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header),
            wire::ProbeResult::kMessage);
  wire::ReqView view;
  EXPECT_FALSE(wire::DecodeRequests(buf.data(), header, &view));
}

TEST(WireTest, AddGatherMultiSliceRoundTrip) {
  std::vector<uint8_t> buf(1024, 0);
  auto a = Payload(40, 1);
  auto b = Payload(60, 2);
  auto c = Payload(28, 3);
  PayloadRef payload;
  payload.Add(a.data(), 40);
  payload.Add(b.data(), 60);
  payload.Add(c.data(), 28);
  ASSERT_EQ(payload.size(), 128u);

  wire::MessageEncoder enc(buf.data(), 1024, 0x4444);
  enc.AddGather(wire::ReqMeta{128, 2, 4, 6}, payload);
  enc.Seal(0, 0);

  wire::MsgHeader header;
  ASSERT_EQ(wire::ProbeMessage(buf.data(), static_cast<uint32_t>(buf.size()), &header),
            wire::ProbeResult::kMessage);
  wire::ReqView view;
  ASSERT_TRUE(wire::DecodeRequests(buf.data(), header, &view));
  ASSERT_EQ(view.meta.data_len, 128u);
  std::vector<uint8_t> flat;
  flat.insert(flat.end(), a.begin(), a.end());
  flat.insert(flat.end(), b.begin(), b.end());
  flat.insert(flat.end(), c.begin(), c.end());
  EXPECT_EQ(std::memcmp(view.data, flat.data(), 128), 0);
}

TEST(WireTest, PayloadRefSubCutsAcrossSlices) {
  auto a = Payload(100, 1);
  auto b = Payload(100, 2);
  PayloadRef payload;
  payload.Add(a.data(), 100);
  payload.Add(b.data(), 100);
  // A cut straddling the slice boundary references both source buffers.
  PayloadRef mid = payload.Sub(80, 40);
  ASSERT_EQ(mid.size(), 40u);
  ASSERT_EQ(mid.num_slices(), 2u);
  std::vector<uint8_t> out(40);
  mid.CopyTo(out.data());
  EXPECT_EQ(std::memcmp(out.data(), a.data() + 80, 20), 0);
  EXPECT_EQ(std::memcmp(out.data() + 20, b.data(), 20), 0);
  // Chunking the whole payload and reassembling restores the bytes.
  std::vector<uint8_t> joined(200);
  for (uint32_t off = 0; off < 200; off += 48) {
    const uint32_t take = std::min(48u, 200u - off);
    payload.Sub(off, take).CopyTo(joined.data() + off);
  }
  EXPECT_EQ(std::memcmp(joined.data(), a.data(), 100), 0);
  EXPECT_EQ(std::memcmp(joined.data() + 100, b.data(), 100), 0);
}

// ---------------------------------------------------------------------------
// Ring protocol
// ---------------------------------------------------------------------------

class RingTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kRing = 1024;
  RingTest() : ring_(kRing, 0), producer_(kRing), consumer_(ring_.data(), kRing) {}

  // Produce one message with `n` requests of `len` bytes each; returns the
  // message length. Writes into the ring directly (standing in for the RDMA
  // write, which in the full system copies exactly these bytes).
  uint32_t Produce(uint32_t n, uint32_t len, uint32_t base_seq) {
    const uint32_t msg_len = wire::MessageBytes(n, n * len);
    RingProducer::Reservation resv;
    if (!producer_.Reserve(msg_len, &resv)) {
      return 0;
    }
    if (resv.wrapped) {
      wire::EncodeWrapMarker(ring_.data() + resv.marker_offset, canary_++);
    }
    wire::MessageEncoder enc(ring_.data() + resv.offset, msg_len, canary_++);
    for (uint32_t i = 0; i < n; ++i) {
      auto payload = Payload(len, static_cast<uint8_t>(base_seq + i));
      enc.Add(wire::ReqMeta{len, 0, 0, base_seq + i}, payload.data());
    }
    EXPECT_EQ(enc.Seal(0, 0), msg_len);
    return msg_len;
  }

  std::vector<uint8_t> ring_;
  RingProducer producer_;
  RingConsumer consumer_;
  uint64_t canary_ = 1;
};

TEST_F(RingTest, ProduceConsumeRoundTrip) {
  ASSERT_GT(Produce(3, 16, 100), 0u);
  wire::MsgHeader header;
  ASSERT_EQ(consumer_.Probe(&header), wire::ProbeResult::kMessage);
  EXPECT_EQ(header.num_reqs, 3);
  std::vector<wire::ReqView> views(3);
  ASSERT_TRUE(wire::DecodeRequests(consumer_.MessagePtr(), header, views.data()));
  EXPECT_EQ(views[2].meta.seq, 102u);
  consumer_.Consume(header);
  EXPECT_EQ(consumer_.Probe(&header), wire::ProbeResult::kEmpty);
}

TEST_F(RingTest, ConsumeZeroesTheRegion) {
  ASSERT_GT(Produce(1, 32, 1), 0u);
  wire::MsgHeader header;
  ASSERT_EQ(consumer_.Probe(&header), wire::ProbeResult::kMessage);
  const uint32_t len = header.total_len;
  consumer_.Consume(header);
  for (uint32_t i = 0; i < len; ++i) {
    EXPECT_EQ(ring_[i], 0) << "byte " << i << " not zeroed";
  }
}

TEST_F(RingTest, ProducerBlocksWhenFullThenResumesOnHeadUpdate) {
  // Fill the ring without consuming.
  int produced = 0;
  while (Produce(1, 64, static_cast<uint32_t>(produced)) > 0) {
    ++produced;
  }
  EXPECT_GT(produced, 3);
  // Consume everything and report the head; producer capacity returns.
  wire::MsgHeader header;
  int consumed = 0;
  while (consumer_.Probe(&header) == wire::ProbeResult::kMessage) {
    consumer_.Consume(header);
    ++consumed;
  }
  EXPECT_EQ(consumed, produced);
  producer_.OnHeadUpdate(consumer_.consumed_report());
  EXPECT_GT(Produce(1, 64, 999), 0u);
}

TEST_F(RingTest, WrapsCleanlyManyTimes) {
  // Stream far more data than the ring size; consume as we go.
  uint32_t next_seq = 0;
  uint32_t verified = 0;
  Rng rng(3);
  for (int round = 0; round < 2000; ++round) {
    const uint32_t n = 1 + static_cast<uint32_t>(rng.NextBelow(4));
    const uint32_t len = 8 + static_cast<uint32_t>(rng.NextBelow(48));
    if (Produce(n, len, next_seq) > 0) {
      next_seq += n;
    }
    wire::MsgHeader header;
    while (consumer_.Probe(&header) == wire::ProbeResult::kMessage) {
      std::vector<wire::ReqView> views(header.num_reqs);
      ASSERT_TRUE(wire::DecodeRequests(consumer_.MessagePtr(), header, views.data()));
      for (const auto& view : views) {
        ASSERT_EQ(view.meta.seq, verified) << "out-of-order or lost request";
        ++verified;
      }
      consumer_.Consume(header);
      producer_.OnHeadUpdate(consumer_.consumed_report());
    }
  }
  EXPECT_EQ(verified, next_seq);
  EXPECT_GT(verified, 2000u);  // must actually have wrapped many times
}

TEST_F(RingTest, ReserveRejectsOversizedMessage) {
  RingProducer small(256);
  RingProducer::Reservation resv;
  EXPECT_TRUE(small.Reserve(96, &resv));
  EXPECT_TRUE(small.Reserve(96, &resv));
  // 96 + 96 used of 224 budget: a further 96 does not fit.
  EXPECT_FALSE(small.Reserve(96, &resv));
}

TEST_F(RingTest, HeadUpdateIsIdempotentForSameHead) {
  ASSERT_GT(Produce(1, 16, 0), 0u);
  wire::MsgHeader header;
  ASSERT_EQ(consumer_.Probe(&header), wire::ProbeResult::kMessage);
  consumer_.Consume(header);
  const uint32_t used_before = producer_.used();
  producer_.OnHeadUpdate(consumer_.consumed_report());
  const uint32_t used_after_first = producer_.used();
  producer_.OnHeadUpdate(consumer_.consumed_report());  // duplicate piggyback
  EXPECT_EQ(producer_.used(), used_after_first);
  EXPECT_LT(used_after_first, used_before);
}

}  // namespace
}  // namespace flock
