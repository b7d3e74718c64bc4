// Length-prefixed, versioned, checksummed binary framing (wire protocol v1).
//
// Every message on an AFT connection — request, response, or commit
// multicast — travels as one frame:
//
//     offset  size  field
//     0       4     magic      0x41465431 ("AFT1", little-endian on the wire)
//     4       1     version    kWireVersion; bump on incompatible change
//     5       1     type       MessageType
//     6       1     flags      bit 0 = trace context present (see below);
//                              other bits reserved, written 0, ignored on read
//     7       1     reserved   must be 0 (future flags)
//     8       4     payload length (bytes; <= kMaxFramePayload)
//     12      4     CRC-32 (IEEE 802.3) of the payload
//     16      ...   payload (src/common/serde.h encoding, see message.h)
//
// Trace context: when header flag bit 0 is set, the payload begins with an
// 8-byte little-endian trace id (the sampled obs::TraceContext travelling
// with the transaction) followed by the message encoding; the length and CRC
// fields cover the prefixed payload. Decoders strip the prefix into
// Frame::trace_id, so message deserializers never see it.
//
// Versioning rules:
//   * The 16-byte header layout is frozen forever — a peer of ANY version can
//     parse the header, decide the frame is not for it, and fail cleanly.
//   * Payload encodings may only change together with a version bump; a
//     receiver rejects frames whose version it does not speak
//     (kInvalidArgument, "unsupported wire version").
//   * Reserved header bytes must be written as zero and ignored on read, so
//     a future version can assign them without breaking old parsers.
//
// A decode error means the byte stream can no longer be trusted: callers
// must close the connection after surfacing the error (there is no way to
// resynchronize a corrupt length-prefixed stream).

#ifndef SRC_NET_FRAME_H_
#define SRC_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/arena.h"
#include "src/common/crc32.h"
#include "src/common/status.h"
#include "src/net/socket.h"

namespace aft {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x41465431u;  // "AFT1"
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderSize = 16;
// Guard against hostile / corrupt length fields: never allocate more than
// this for one frame. Large commits are chunked by the layers above.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB

// One octet on the wire. Responses are `request | kResponseBit` so a client
// can verify a reply matches what it asked for.
inline constexpr uint8_t kResponseBit = 0x80;

// Header flags (offset 6). Senders must only set kFrameFlagTraceContext
// toward peers known to speak it; both sides ship from this tree.
inline constexpr uint8_t kFrameFlagTraceContext = 0x01;

enum class MessageType : uint8_t {
  kStartTxn = 1,
  kAdoptTxn = 2,
  kGet = 3,
  kMultiGet = 4,
  kPut = 5,
  kPutBatch = 6,
  kCommit = 7,
  kAbort = 8,
  kApplyCommits = 9,  // Inter-node commit multicast (§4.1).
  kPing = 10,
  kGetMetrics = 11,   // Prometheus exposition snapshot of the node's registry.
};

inline MessageType ResponseType(MessageType request) {
  return static_cast<MessageType>(static_cast<uint8_t>(request) | kResponseBit);
}
inline bool IsResponse(MessageType type) {
  return (static_cast<uint8_t>(type) & kResponseBit) != 0;
}
inline MessageType RequestOf(MessageType response) {
  return static_cast<MessageType>(static_cast<uint8_t>(response) & ~kResponseBit);
}
// True iff `type` (with the response bit stripped) names a known message.
bool IsKnownMessageType(MessageType type);
std::string_view MessageTypeName(MessageType type);

// CRC-32 (IEEE reflected polynomial 0xEDB88320), the Ethernet/zip checksum.
// The implementation lives in src/common/crc32.h (shared with the durable
// WAL's record framing); these aliases keep existing net call sites intact.
inline uint32_t Crc32(std::string_view data) { return ::aft::Crc32(data); }

// Streaming variant for payloads held as segment chains: feed spans in order,
// no coalescing. `Crc32End(Crc32Feed(Crc32Begin(), d, n))` == `Crc32({d,n})`.
inline uint32_t Crc32Begin() { return ::aft::Crc32Begin(); }
inline uint32_t Crc32Feed(uint32_t state, const void* data, size_t len) {
  return ::aft::Crc32Feed(state, data, len);
}
inline uint32_t Crc32End(uint32_t state) { return ::aft::Crc32End(state); }

struct Frame {
  MessageType type = MessageType::kPing;
  std::string payload;
  // Sampled trace id carried by the frame; 0 = no trace context on the wire.
  uint64_t trace_id = 0;
};

// Builds the complete on-wire bytes (header + payload) for one frame.
// A non-zero `trace_id` sets kFrameFlagTraceContext and prefixes the payload
// with the 8-byte id.
std::string EncodeFrame(MessageType type, std::string_view payload, uint64_t trace_id = 0);

// A sealed, ready-to-send frame in scatter-gather form: the 16-byte header
// (plus the 8-byte trace-id prefix when present) lives inline in `head`, the
// message payload stays in its arena segments. The bytes on the wire are
// exactly EncodeFrame's — v1 receivers cannot tell the two apart — but
// nothing is ever coalesced: senders walk head + payload spans via iovecs.
// Sealing is the last time the payload may change; a sealed frame is
// immutable and safe to send repeatedly (client retries reuse it verbatim).
struct FrameBytes {
  char head[kFrameHeaderSize + sizeof(uint64_t)] = {};
  size_t head_len = 0;
  MessageType type = MessageType::kPing;
  SegmentBuffer payload;

  size_t size() const { return head_len + payload.size(); }
};

// Seals `payload` into a frame: computes length + CRC over the (trace-prefixed)
// payload with the streaming CRC and fills the inline head. Rejects payloads
// over kMaxFramePayload.
Result<FrameBytes> SealFrame(MessageType type, SegmentBuffer payload, uint64_t trace_id = 0);

// Fills up to `max_iov` iovecs with the frame's bytes after skipping the
// first `skip` bytes (partially-sent frames); returns the count filled.
// The iovecs alias the frame — valid while the frame is alive.
size_t FillFrameIovecs(const FrameBytes& frame, size_t skip, struct iovec* iov, size_t max_iov);

// Parses one complete frame from an in-memory buffer. Rejects bad magic,
// unsupported versions, oversized or truncated payloads, and CRC mismatches
// with a descriptive error — never crashes, never reads past `bytes`.
Result<Frame> DecodeFrame(std::string_view bytes);

// Incremental variant for a streaming read buffer (the server's I/O step
// accumulates bytes as they arrive): examines the FRONT of `buffer` and
//   * returns the byte count consumed (header + payload) with `*out` filled
//     when a complete frame is present;
//   * returns 0 when the buffer merely needs more bytes (nothing consumed);
//   * returns the DecodeFrame errors for corrupt data — same contract: the
//     stream cannot be resynchronized and must be dropped.
// Header fields are validated as soon as the 16 header bytes are in hand, so
// a hostile length field is rejected before any payload accumulates.
Result<size_t> DecodeFrameFromBuffer(std::string_view buffer, Frame* out);

// Stream variants: write/read one frame over a connected socket. ReadFrame
// returns kUnavailable when the peer closes cleanly between frames, and the
// DecodeFrame errors above for torn or corrupt frames.
//
// Scatter-gather write of a sealed frame: header + payload segments go out
// via one writev-style call per IOV window, no coalescing copy. Blocking;
// safe to call repeatedly with the same frame (retries).
Status WriteFrameBytes(Socket& socket, const FrameBytes& frame);
Result<Frame> ReadFrame(Socket& socket);

}  // namespace net
}  // namespace aft

#endif  // SRC_NET_FRAME_H_
