// Wire-compatibility golden tests for the zero-copy serde path.
//
// Protocol v1 froze the frame and payload encodings; the arena writer and the
// scatter-gather frame sealer were added UNDER that contract (see
// docs/PROTOCOLS.md, "Buffer ownership & zero-copy contract"). These tests
// pin the contract down byte for byte:
//
//   * every request/response encodes identically through the legacy
//     `Serialize()` (BinaryWriter, flat string) and the arena
//     `SerializeTo(ArenaWriter&)` path — including payloads that span
//     multiple 16 KiB pool segments;
//   * `SealFrame` produces exactly `EncodeFrame`'s bytes, with and without a
//     trace-context prefix;
//   * the direct-field record encoders emit exactly the struct Serialize()
//     bytes through BOTH writers, and a commit record's bytes are pinned in
//     hex (the decoder rejects the reserved segment slots set);
//   * `BinaryReader`'s view getters parse IN PLACE: returned views alias the
//     caller's buffer, never a copy.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/arena.h"
#include "src/common/serde.h"
#include "src/core/records.h"
#include "src/net/frame.h"
#include "src/net/message.h"

namespace aft {
namespace {

using net::EncodeFrame;
using net::MessageType;
using net::SealFrame;

// A value long enough that one of it cannot fit in a pool segment and a few
// of them force the arena onto its third segment — the interesting regime
// for Append's split-across-segments arithmetic.
std::string BigValue(char fill) { return std::string(BufferPool::kSegmentSize + 911, fill); }

template <typename Msg>
void ExpectRequestCompat(const Msg& msg) {
  ArenaWriter arena;
  msg.SerializeTo(arena);
  EXPECT_EQ(arena.buffer().ToString(), msg.Serialize());
}

template <typename Msg>
void ExpectResponseCompat(const Msg& msg, const Status& status) {
  ArenaWriter arena;
  msg.SerializeTo(arena, status);
  EXPECT_EQ(arena.buffer().ToString(), msg.Serialize(status));
}

TEST(SerdeCompatTest, RequestsEncodeIdenticallyThroughBothWriters) {
  const Uuid txid(0x0123456789abcdefull, 0xfedcba9876543210ull);

  ExpectRequestCompat(net::StartTxnRequest{});
  ExpectRequestCompat(net::AdoptTxnRequest{txid});
  ExpectRequestCompat(net::GetRequest{txid, "user:42"});
  ExpectRequestCompat(net::MultiGetRequest{txid, {"a", "", "user:42", BigValue('k')}});
  ExpectRequestCompat(net::PutRequest{txid, "k", std::string("\x00\x01 binary \xff", 11)});
  // Three oversized ops: the arena payload spans at least four segments.
  ExpectRequestCompat(net::PutBatchRequest{
      txid, {{"k1", BigValue('a')}, {"k2", BigValue('b')}, {"k3", BigValue('c')}}});
  ExpectRequestCompat(net::CommitRequest{txid});
  ExpectRequestCompat(net::AbortRequest{txid});
  ExpectRequestCompat(net::PingRequest{});
  ExpectRequestCompat(net::GetMetricsRequest{});

  auto record = std::make_shared<CommitRecord>();
  record->id = TxnId{1234567, Uuid(7, 9)};
  record->write_set = {"alpha", BigValue('w')};
  record->locators = {{"alpha", 0, 5}, {"beta", 5, 7}};
  ExpectRequestCompat(net::ApplyCommitsRequest{{record, record}});
}

TEST(SerdeCompatTest, ResponsesEncodeIdenticallyThroughBothWriters) {
  const Status statuses[] = {Status::Ok(), Status::Aborted("read atomicity violated"),
                             Status::Unavailable("node killed")};
  auto record = std::make_shared<CommitRecord>();
  record->id = TxnId{42, Uuid(1, 2)};
  record->write_set = {"k"};

  for (const Status& status : statuses) {
    ExpectResponseCompat(net::StartTxnResponse{Uuid(3, 4)}, status);

    net::GetResponse get;
    get.read.value = BigValue('v');
    get.read.version = TxnId{42, Uuid(1, 2)};
    get.read.record = record;
    ExpectResponseCompat(get, status);

    net::MultiGetResponse mget;
    mget.reads.push_back(get.read);
    mget.reads.push_back({});  // NULL-version read: no value, no record.
    ExpectResponseCompat(mget, status);

    ExpectResponseCompat(net::CommitResponse{TxnId{7, Uuid(8, 9)}}, status);
    ExpectResponseCompat(net::ApplyCommitsResponse{3}, status);
    ExpectResponseCompat(net::PingResponse{"aft-0"}, status);
    ExpectResponseCompat(net::GetMetricsResponse{"# TYPE aft_up gauge\naft_up 1\n"}, status);

    ArenaWriter arena;
    net::SerializeEmptyResponseTo(arena, status);
    EXPECT_EQ(arena.buffer().ToString(), net::SerializeEmptyResponse(status));
  }
}

TEST(SerdeCompatTest, SealFrameMatchesEncodeFrameByteForByte) {
  const std::string payloads[] = {
      std::string(),
      std::string("hello"),
      std::string("\x00\x01\xff\x7f binary \x00", 14),
      std::string(3 * BufferPool::kSegmentSize + 17, 'x'),  // four-segment chain
  };
  const uint64_t trace_ids[] = {0, 0x1122334455667788ull};

  for (const std::string& payload : payloads) {
    for (const uint64_t trace_id : trace_ids) {
      SegmentBuffer buffer;
      buffer.Append(payload.data(), payload.size());
      auto sealed = SealFrame(MessageType::kCommit, std::move(buffer), trace_id);
      ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();

      std::string wire(sealed->head, sealed->head_len);
      wire += sealed->payload.ToString();
      EXPECT_EQ(wire, EncodeFrame(MessageType::kCommit, payload, trace_id));

      // Both spellings must decode to the same frame (CRC verified inside).
      auto frame = net::DecodeFrame(wire);
      ASSERT_TRUE(frame.ok()) << frame.status().ToString();
      EXPECT_EQ(frame->payload, payload);
      EXPECT_EQ(frame->trace_id, trace_id);
    }
  }
}

// Wire protocol v1's CRC field, pinned: a Put frame carrying a 4 KiB value,
// untraced and traced, has the CRC-32 that the bytewise CRC loop computed,
// through both frame encoders.
TEST(SerdeCompatTest, FourKiBPutFrameCrcIsPinned) {
  std::string value(4096, '\0');
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  const std::string payload = net::PutRequest{Uuid(7, 9), "pinned-key", value}.Serialize();
  const struct {
    uint64_t trace_id;
    uint32_t crc;
  } cases[] = {{0, 0x8A44F5C4u}, {0x1122334455667788ull, 0xDFCAA173u}};
  for (const auto& c : cases) {
    const std::string wire = EncodeFrame(MessageType::kPut, payload, c.trace_id);
    uint32_t payload_len = 0;
    uint32_t crc = 0;
    std::memcpy(&payload_len, wire.data() + 8, 4);
    std::memcpy(&crc, wire.data() + 12, 4);
    EXPECT_EQ(payload_len, payload.size() + (c.trace_id != 0 ? sizeof(uint64_t) : 0));
    EXPECT_EQ(crc, c.crc) << "trace id " << c.trace_id;

    SegmentBuffer buffer;
    buffer.Append(payload.data(), payload.size());
    auto sealed = SealFrame(MessageType::kPut, std::move(buffer), c.trace_id);
    ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
    std::memcpy(&crc, sealed->head + 12, 4);
    EXPECT_EQ(crc, c.crc) << "trace id " << c.trace_id;
  }
}

TEST(SerdeCompatTest, RecordFieldEncodersMatchStructSerialize) {
  CommitRecord record;
  record.id = TxnId{987654321, Uuid(0xaa, 0xbb)};
  record.write_set = {"alpha", "", BigValue('w')};
  record.locators = {{"alpha", 0, 10}, {BigValue('l'), 10, 20}};

  BinaryWriter flat;
  EncodeCommitRecordFields(flat, record.id, record.write_set, record.locators);
  ArenaWriter arena;
  EncodeCommitRecordFields(arena, record.id, record.write_set, record.locators);
  EXPECT_EQ(flat.data(), record.Serialize());
  EXPECT_EQ(arena.buffer().ToString(), record.Serialize());

  VersionedValue value;
  value.writer = record.id;
  value.cowritten = record.write_set;
  value.payload = BigValue('p');

  BinaryWriter flat_value;
  EncodeVersionedValueFields(flat_value, value.writer, value.cowritten, value.payload);
  ArenaWriter arena_value;
  EncodeVersionedValueFields(arena_value, value.writer, value.cowritten, value.payload);
  EXPECT_EQ(flat_value.data(), value.Serialize());
  EXPECT_EQ(arena_value.buffer().ToString(), value.Serialize());
}

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 0xf];
  }
  return out;
}

// A record with one in-record locator: write set {"k"}, its 2-byte payload
// right after the 59 bytes of fields. The layout, little-endian:
//   c1 | ts i64 | uuid hi u64 | uuid lo u64 | write set (u32 count, u32 len,
//   "k") | segment count u32 = 0 (reserved) | u32 locator count | key (u32
//   len, "k") | segment u32 = kInRecordSegment (reserved) | offset u32 |
//   length u32.
constexpr char kPinnedRecordHex[] =
    "c1"
    "87d6120000000000"
    "0700000000000000"
    "0900000000000000"
    "01000000"
    "01000000"
    "6b"
    "00000000"
    "01000000"
    "01000000"
    "6b"
    "ffffffff"
    "3b000000"
    "02000000";
constexpr size_t kPinnedSegmentCountAt = 34;
constexpr size_t kPinnedLocatorSegmentAt = 47;

CommitRecord PinnedRecord() {
  CommitRecord record;
  record.id = TxnId{1234567, Uuid(7, 9)};
  record.write_set = {"k"};
  record.locators = {{"k", 59, 2}};
  return record;
}

TEST(SerdeCompatTest, CommitRecordBytesArePinned) {
  const CommitRecord record = PinnedRecord();
  const std::string bytes = record.Serialize();
  EXPECT_EQ(Hex(bytes), kPinnedRecordHex);
  EXPECT_EQ(bytes.size(), EncodedCommitRecordBytes(record.write_set, record.locators));

  // Payload bytes after the fields are not part of the record.
  auto decoded = CommitRecord::Deserialize(bytes + "v!");
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, record.id);
  EXPECT_EQ(decoded->write_set, record.write_set);
  ASSERT_EQ(decoded->locators.size(), 1u);
  EXPECT_EQ(decoded->locators[0].key, "k");
  EXPECT_EQ(decoded->locators[0].offset, 59u);
  EXPECT_EQ(decoded->locators[0].length, 2u);
}

// A record naming a payload outside its own object — a non-zero segment
// count, or a locator whose segment is not kInRecordSegment — has nothing
// that can read it; records arrive over gossip and from storage, so the
// decoder refuses them.
TEST(SerdeCompatTest, CommitRecordDecoderRejectsSegmentSlots) {
  const std::string bytes = PinnedRecord().Serialize();
  auto patched = [&bytes](size_t at, uint32_t value) {
    std::string out = bytes;
    for (int i = 0; i < 4; ++i) {
      out[at + i] = static_cast<char>((value >> (8 * i)) & 0xff);
    }
    return out;
  };
  ASSERT_TRUE(CommitRecord::Deserialize(patched(kPinnedSegmentCountAt, 0)).ok());
  ASSERT_TRUE(CommitRecord::Deserialize(patched(kPinnedLocatorSegmentAt, kInRecordSegment)).ok());

  for (const uint32_t count : {1u, 4u, kInRecordSegment}) {
    auto decoded = CommitRecord::Deserialize(patched(kPinnedSegmentCountAt, count));
    ASSERT_FALSE(decoded.ok()) << count;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInternal);
    EXPECT_NE(decoded.status().message().find("corrupt commit record"), std::string::npos);
  }
  for (const uint32_t segment : {0u, 1u, kInRecordSegment - 1}) {
    auto decoded = CommitRecord::Deserialize(patched(kPinnedLocatorSegmentAt, segment));
    ASSERT_FALSE(decoded.ok()) << segment;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInternal);
    EXPECT_NE(decoded.status().message().find("corrupt commit record"), std::string::npos);
  }
}

TEST(SerdeCompatTest, ReaderViewsAliasTheDecodedBuffer) {
  BinaryWriter w;
  w.PutString("short");
  w.PutString(BigValue('z'));
  w.PutStringVector({"a", "", "long enough to defeat SSO either way......."});
  const std::string& bytes = w.data();
  const char* lo = bytes.data();
  const char* hi = bytes.data() + bytes.size();

  auto aliases = [&](std::string_view v) {
    return v.empty() || (v.data() >= lo && v.data() + v.size() <= hi);
  };

  BinaryReader r(bytes);
  std::string_view s;
  ASSERT_TRUE(r.GetStringView(&s));
  EXPECT_EQ(s, "short");
  EXPECT_TRUE(aliases(s));

  ASSERT_TRUE(r.GetStringView(&s));
  EXPECT_EQ(s.size(), BufferPool::kSegmentSize + 911);
  EXPECT_TRUE(aliases(s));

  uint32_t count = 0;
  ASSERT_TRUE(r.GetU32(&count));
  ASSERT_EQ(count, 3u);
  for (uint32_t i = 0; i < count; ++i) {
    ASSERT_TRUE(r.GetStringView(&s));
    EXPECT_TRUE(aliases(s));
  }
  EXPECT_TRUE(r.AtEnd());
}

// The flip side of decode-in-place: a view that outlives its frame buffer is
// a use-after-free, and the ASan CI leg must CATCH that pattern, not let it
// read stale-but-mapped memory silently. Death test, ASan builds only —
// without ASan the read is quiet UB and nothing dies.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AFT_SERDE_TEST_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define AFT_SERDE_TEST_ASAN 1
#endif

#ifdef AFT_SERDE_TEST_ASAN
TEST(SerdeCompatDeathTest, ViewOutlivingFrameBufferIsCaughtByAsan) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        BinaryWriter w;
        w.PutString("long enough to live on the heap, not in SSO storage");
        auto* frame = new std::string(std::move(w).TakeData());
        BinaryReader r(*frame);
        std::string_view view;
        (void)r.GetStringView(&view);
        delete frame;  // The frame dies; `view` now dangles.
        volatile char sink = view[0];
        (void)sink;
      },
      "use-after-free");
}
#endif  // AFT_SERDE_TEST_ASAN

}  // namespace
}  // namespace aft
