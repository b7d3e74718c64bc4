// Pooled segment arena backing the zero-copy serde/transport hot path.
//
// Three pieces (see docs/PROTOCOLS.md, "Buffer ownership & zero-copy
// contract"):
//
//   * `BufferPool`   — a process-wide freelist of fixed-size (16 KiB) byte
//                      segments. Acquire/Release never touch the allocator at
//                      steady state; recycling uses the same hysteresis shape
//                      as the transport backpressure (src/net/server.h): the
//                      freelist fills to its cap, then trims in one batch down
//                      to HALF the cap, so a load spike's segments are reused
//                      across the spike instead of thrashing malloc at the
//                      boundary.
//   * `SegmentBuffer`— an owning chain of pool segments holding one encoded
//                      payload. Exposes the bytes as spans (iovec-ready: the
//                      net layer hands them straight to sendmsg) instead of
//                      one flat string, so building a frame never coalesces.
//   * `ArenaWriter`  — the serde writer over a SegmentBuffer. Same Put* API
//                      and byte-identical output as `BinaryWriter`
//                      (src/common/serde.h); message.cc instantiates one
//                      shared encode body for both, which is what makes the
//                      wire-compat golden tests hold by construction.
//
// Ownership rules: a SegmentBuffer owns its segments and returns them to its
// pool on Clear()/destruction. Spans returned by Span()/ForEachSpan alias the
// buffer and die with it — callers must not hold them across Clear(). The
// pool outlives every buffer carved from it (the Global() pool lives for the
// process).

#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/mutex.h"

namespace aft {

// Thread-safe freelist of fixed-size segments.
class BufferPool {
 public:
  static constexpr size_t kSegmentSize = 16 * 1024;

  // `max_pooled_segments` is the freelist cap (the hysteresis high
  // watermark); on overflow the list is trimmed to half the cap in one batch.
  explicit BufferPool(size_t max_pooled_segments = 256);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  // The process-wide pool used when a SegmentBuffer is not given its own.
  static BufferPool& Global();

  // Never returns null: falls through to the heap when the freelist is empty.
  char* Acquire();
  // Returns a segment for reuse (or frees it past the watermark).
  void Release(char* segment);

  struct Stats {
    uint64_t acquires = 0;   // total Acquire calls
    uint64_t pool_hits = 0;  // acquires served from the freelist
    uint64_t trims = 0;      // hysteresis trim batches
  };
  Stats stats() const;
  size_t pooled() const;

 private:
  const size_t max_pooled_;
  mutable Mutex mu_;
  std::vector<char*> free_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_);
};

// An owning, movable chain of pool segments; the payload representation of
// the zero-copy path. Appends fill the tail segment and acquire the next one
// from the pool; no byte is ever copied between segments.
class SegmentBuffer {
 public:
  // nullptr = the global pool.
  explicit SegmentBuffer(BufferPool* pool = nullptr)
      : pool_(pool != nullptr ? pool : &BufferPool::Global()) {}
  ~SegmentBuffer() { Reset(); }

  SegmentBuffer(SegmentBuffer&& other) noexcept
      : pool_(other.pool_), segments_(std::move(other.segments_)), size_(other.size_) {
    other.segments_.clear();
    other.size_ = 0;
  }
  SegmentBuffer& operator=(SegmentBuffer&& other) noexcept {
    if (this != &other) {
      Reset();
      pool_ = other.pool_;
      segments_ = std::move(other.segments_);
      size_ = other.size_;
      other.segments_.clear();
      other.size_ = 0;
    }
    return *this;
  }
  SegmentBuffer(const SegmentBuffer&) = delete;
  SegmentBuffer& operator=(const SegmentBuffer&) = delete;

  void Append(const void* data, size_t len) {
    const char* src = static_cast<const char*>(data);
    while (len > 0) {
      const size_t used = size_ - (segments_.empty() ? 0 : (segments_.size() - 1) * BufferPool::kSegmentSize);
      size_t room = segments_.empty() ? 0 : BufferPool::kSegmentSize - used;
      if (room == 0) {
        segments_.push_back(pool_->Acquire());
        room = BufferPool::kSegmentSize;
      }
      const size_t n = len < room ? len : room;
      std::memcpy(segments_.back() + (BufferPool::kSegmentSize - room), src, n);
      src += n;
      len -= n;
      size_ += n;
    }
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Releases every segment back to the pool; keeps the chain vector's
  // capacity so a reused buffer re-fills without allocating.
  void Clear() {
    for (char* segment : segments_) {
      pool_->Release(segment);
    }
    segments_.clear();
    size_ = 0;
  }

  // The payload as contiguous spans, in order. Span addresses alias this
  // buffer: they are invalidated by Append/Clear/destruction.
  size_t SpanCount() const { return segments_.size(); }
  std::pair<const char*, size_t> Span(size_t i) const {
    const bool last = i + 1 == segments_.size();
    const size_t len =
        last ? size_ - i * BufferPool::kSegmentSize : BufferPool::kSegmentSize;
    return {segments_[i], len};
  }
  template <typename Fn>
  void ForEachSpan(Fn&& fn) const {
    for (size_t i = 0; i < segments_.size(); ++i) {
      const auto [data, len] = Span(i);
      fn(data, len);
    }
  }

  // Boundary copies (storage, tests): flatten into caller-owned memory.
  void CopyTo(char* dst) const {
    ForEachSpan([&dst](const char* data, size_t len) {
      std::memcpy(dst, data, len);
      dst += len;
    });
  }
  std::string ToString() const {
    std::string out;
    out.resize(size_);
    CopyTo(out.data());
    return out;
  }

 private:
  void Reset() {
    for (char* segment : segments_) {
      pool_->Release(segment);
    }
    segments_.clear();
    size_ = 0;
  }

  BufferPool* pool_;
  std::vector<char*> segments_;
  size_t size_ = 0;
};

// The serde writer of the zero-copy path: BinaryWriter's Put* API emitting
// into a SegmentBuffer. Output bytes are identical to BinaryWriter's —
// message.cc encodes every wire type through one shared body instantiated
// for both writers.
class ArenaWriter {
 public:
  explicit ArenaWriter(BufferPool* pool = nullptr) : buf_(pool) {}

  void PutU8(uint8_t v) {
    const char c = static_cast<char>(v);
    buf_.Append(&c, 1);
  }
  void PutU32(uint32_t v) { buf_.Append(&v, 4); }
  void PutU64(uint64_t v) { buf_.Append(&v, 8); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.Append(s.data(), s.size());
  }
  template <typename Container>
  void PutStringVector(const Container& v) {
    PutU32(static_cast<uint32_t>(v.size()));
    for (const auto& s : v) {
      PutString(s);
    }
  }
  void PutStringVector(std::initializer_list<std::string_view> v) {
    PutStringVector<std::initializer_list<std::string_view>>(v);
  }
  void PutBytes(const void* data, size_t len) { buf_.Append(data, len); }
  void PutRaw(std::string_view s) { buf_.Append(s.data(), s.size()); }

  size_t size() const { return buf_.size(); }
  void Clear() { buf_.Clear(); }

  const SegmentBuffer& buffer() const& { return buf_; }
  SegmentBuffer TakeBuffer() && { return std::move(buf_); }

 private:
  SegmentBuffer buf_;
};

}  // namespace aft

#endif  // SRC_COMMON_ARENA_H_
