#include "src/net/frame.h"

#include <cstring>

namespace aft {
namespace net {

namespace {

struct ParsedHeader {
  uint8_t version = 0;
  MessageType type = MessageType::kPing;
  uint8_t flags = 0;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
};

// Header-only validation; payload length/CRC are checked against the actual
// payload by the caller once the bytes are in hand.
Result<ParsedHeader> ParseHeader(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::InvalidArgument("truncated frame header (" + std::to_string(bytes.size()) +
                                   " of " + std::to_string(kFrameHeaderSize) + " bytes)");
  }
  uint32_t magic = 0;
  std::memcpy(&magic, bytes.data(), 4);
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  ParsedHeader header;
  header.version = static_cast<uint8_t>(bytes[4]);
  if (header.version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire version " + std::to_string(header.version) +
                                   " (this peer speaks " + std::to_string(kWireVersion) + ")");
  }
  header.type = static_cast<MessageType>(bytes[5]);
  if (!IsKnownMessageType(header.type)) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(static_cast<int>(header.type)));
  }
  // Unknown flag bits are ignored on read (versioning rules); known ones are
  // honored below when the payload is in hand.
  header.flags = static_cast<uint8_t>(bytes[6]);
  std::memcpy(&header.payload_len, bytes.data() + 8, 4);
  if (header.payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " + std::to_string(header.payload_len) +
                                   " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                                   "-byte limit");
  }
  std::memcpy(&header.crc, bytes.data() + 12, 4);
  return header;
}

// Pulls the 8-byte trace-id prefix off an already-CRC-verified payload.
Status StripTracePrefix(Frame* frame) {
  if (frame->payload.size() < sizeof(uint64_t)) {
    return Status::InvalidArgument("trace-flagged frame shorter than its trace id");
  }
  std::memcpy(&frame->trace_id, frame->payload.data(), sizeof(uint64_t));
  frame->payload.erase(0, sizeof(uint64_t));
  return Status::Ok();
}

// CRC state after the optional 8-byte trace-id prefix: the frame's length
// and CRC cover that prefix followed by the payload.
uint32_t TraceCrcState(uint64_t trace_id) {
  const uint32_t state = Crc32Begin();
  return trace_id != 0 ? Crc32Feed(state, &trace_id, sizeof(uint64_t)) : state;
}

// Writes the 16-byte v1 header; the one header writer behind EncodeFrame and
// SealFrame. `wire_payload_len` and `crc` include the trace prefix, if any.
void WriteFrameHeader(char* out, MessageType type, uint64_t trace_id, size_t wire_payload_len,
                      uint32_t crc) {
  const uint32_t magic = kFrameMagic;
  const uint32_t len32 = static_cast<uint32_t>(wire_payload_len);
  std::memcpy(out, &magic, 4);
  out[4] = static_cast<char>(kWireVersion);
  out[5] = static_cast<char>(type);
  out[6] = static_cast<char>(trace_id != 0 ? kFrameFlagTraceContext : 0);
  out[7] = 0;  // reserved
  std::memcpy(out + 8, &len32, 4);
  std::memcpy(out + 12, &crc, 4);
}

}  // namespace

bool IsKnownMessageType(MessageType type) {
  const uint8_t base = static_cast<uint8_t>(RequestOf(type));
  return base >= static_cast<uint8_t>(MessageType::kStartTxn) &&
         base <= static_cast<uint8_t>(MessageType::kGetMetrics);
}

std::string_view MessageTypeName(MessageType type) {
  switch (RequestOf(type)) {
    case MessageType::kStartTxn:
      return "StartTxn";
    case MessageType::kAdoptTxn:
      return "AdoptTxn";
    case MessageType::kGet:
      return "Get";
    case MessageType::kMultiGet:
      return "MultiGet";
    case MessageType::kPut:
      return "Put";
    case MessageType::kPutBatch:
      return "PutBatch";
    case MessageType::kCommit:
      return "Commit";
    case MessageType::kAbort:
      return "Abort";
    case MessageType::kApplyCommits:
      return "ApplyCommits";
    case MessageType::kPing:
      return "Ping";
    case MessageType::kGetMetrics:
      return "GetMetrics";
    default:
      return "Unknown";
  }
}

std::string EncodeFrame(MessageType type, std::string_view payload, uint64_t trace_id) {
  const size_t trace_len = trace_id != 0 ? sizeof(uint64_t) : 0;
  std::string bytes;
  bytes.reserve(kFrameHeaderSize + trace_len + payload.size());
  bytes.resize(kFrameHeaderSize);
  WriteFrameHeader(bytes.data(), type, trace_id, trace_len + payload.size(),
                   Crc32End(Crc32Feed(TraceCrcState(trace_id), payload.data(), payload.size())));
  bytes.append(reinterpret_cast<const char*>(&trace_id), trace_len);
  bytes.append(payload);
  return bytes;
}

Result<Frame> DecodeFrame(std::string_view bytes) {
  AFT_ASSIGN_OR_RETURN(ParsedHeader header, ParseHeader(bytes));
  const std::string_view payload = bytes.substr(kFrameHeaderSize);
  if (payload.size() < header.payload_len) {
    return Status::InvalidArgument("truncated frame payload (" + std::to_string(payload.size()) +
                                   " of " + std::to_string(header.payload_len) + " bytes)");
  }
  Frame frame;
  frame.type = header.type;
  frame.payload.assign(payload.data(), header.payload_len);
  if (Crc32(frame.payload) != header.crc) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  if ((header.flags & kFrameFlagTraceContext) != 0) {
    AFT_RETURN_IF_ERROR(StripTracePrefix(&frame));
  }
  return frame;
}

Result<size_t> DecodeFrameFromBuffer(std::string_view buffer, Frame* out) {
  if (buffer.size() < kFrameHeaderSize) {
    return static_cast<size_t>(0);
  }
  AFT_ASSIGN_OR_RETURN(ParsedHeader header, ParseHeader(buffer));
  const size_t total = kFrameHeaderSize + header.payload_len;
  if (buffer.size() < total) {
    return static_cast<size_t>(0);
  }
  out->type = header.type;
  out->trace_id = 0;
  out->payload.assign(buffer.data() + kFrameHeaderSize, header.payload_len);
  if (Crc32(out->payload) != header.crc) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  if ((header.flags & kFrameFlagTraceContext) != 0) {
    AFT_RETURN_IF_ERROR(StripTracePrefix(out));
  }
  return total;
}

Result<FrameBytes> SealFrame(MessageType type, SegmentBuffer payload, uint64_t trace_id) {
  const size_t trace_len = trace_id != 0 ? sizeof(uint64_t) : 0;
  const size_t wire_payload_len = trace_len + payload.size();
  if (wire_payload_len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " + std::to_string(wire_payload_len) +
                                   " bytes exceeds the " + std::to_string(kMaxFramePayload) +
                                   "-byte limit");
  }
  uint32_t crc_state = TraceCrcState(trace_id);
  payload.ForEachSpan([&crc_state](const char* data, size_t len) {
    crc_state = Crc32Feed(crc_state, data, len);
  });

  FrameBytes frame;
  frame.type = type;
  WriteFrameHeader(frame.head, type, trace_id, wire_payload_len, Crc32End(crc_state));
  frame.head_len = kFrameHeaderSize;
  if (trace_len != 0) {
    std::memcpy(frame.head + kFrameHeaderSize, &trace_id, trace_len);
    frame.head_len += trace_len;
  }
  frame.payload = std::move(payload);
  return frame;
}

size_t FillFrameIovecs(const FrameBytes& frame, size_t skip, struct iovec* iov, size_t max_iov) {
  size_t count = 0;
  if (skip < frame.head_len && count < max_iov) {
    iov[count].iov_base = const_cast<char*>(frame.head) + skip;
    iov[count].iov_len = frame.head_len - skip;
    ++count;
    skip = 0;
  } else {
    skip -= frame.head_len;
  }
  const size_t spans = frame.payload.SpanCount();
  for (size_t i = 0; i < spans && count < max_iov; ++i) {
    const auto [data, len] = frame.payload.Span(i);
    if (skip >= len) {
      skip -= len;
      continue;
    }
    iov[count].iov_base = const_cast<char*>(data) + skip;
    iov[count].iov_len = len - skip;
    ++count;
    skip = 0;
  }
  return count;
}

Status WriteFrameBytes(Socket& socket, const FrameBytes& frame) {
  size_t sent = 0;
  const size_t total = frame.size();
  while (sent < total) {
    struct iovec iov[64];
    const size_t count = FillFrameIovecs(frame, sent, iov, 64);
    AFT_RETURN_IF_ERROR(socket.SendAllV(iov, count));
    for (size_t i = 0; i < count; ++i) {
      sent += iov[i].iov_len;
    }
  }
  return Status::Ok();
}

Result<Frame> ReadFrame(Socket& socket) {
  char header_bytes[kFrameHeaderSize];
  AFT_RETURN_IF_ERROR(socket.RecvAll(header_bytes, kFrameHeaderSize));
  AFT_ASSIGN_OR_RETURN(ParsedHeader header,
                       ParseHeader(std::string_view(header_bytes, kFrameHeaderSize)));
  Frame frame;
  frame.type = header.type;
  frame.payload.resize(header.payload_len);
  if (header.payload_len > 0) {
    AFT_RETURN_IF_ERROR(socket.RecvAll(frame.payload.data(), header.payload_len));
  }
  if (Crc32(frame.payload) != header.crc) {
    return Status::InvalidArgument("frame CRC mismatch");
  }
  if ((header.flags & kFrameFlagTraceContext) != 0) {
    AFT_RETURN_IF_ERROR(StripTracePrefix(&frame));
  }
  return frame;
}

}  // namespace net
}  // namespace aft
