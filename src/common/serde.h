// Minimal binary serialization for AFT records.
//
// AFT persists commit records and versioned values into storage engines that
// only understand byte strings. This module provides a small, explicit
// little-endian writer/reader pair — no reflection, no allocation tricks —
// with length-prefixed strings and containers.

#ifndef SRC_COMMON_SERDE_H_
#define SRC_COMMON_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace aft {

// Appends fixed-width integers and length-prefixed byte strings to a buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) {
    char tmp[4];
    std::memcpy(tmp, &v, 4);
    buf_.append(tmp, 4);
  }

  void PutU64(uint64_t v) {
    char tmp[8];
    std::memcpy(tmp, &v, 8);
    buf_.append(tmp, 8);
  }

  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }

  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }

  // Appends `s` with no length prefix (a caller-located payload).
  void PutRaw(std::string_view s) { buf_.append(s); }

  // Any sized range of string-view-convertible elements (std::vector,
  // SmallVector, a keys view over a map) encodes identically.
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

  const std::string& data() const& { return buf_; }
  std::string TakeData() && { return std::move(buf_); }
  // Drops the content, keeps the capacity — scratch writers on the hot path
  // are reused across operations without re-allocating.
  void Clear() { buf_.clear(); }
  // Pre-size the buffer: encoders that know their exact output size reserve
  // once so the append path never re-allocates mid-record.
  void Reserve(size_t bytes) { buf_.reserve(buf_.size() + bytes); }

 private:
  std::string buf_;
};

// Reads values written by BinaryWriter. All getters return false (and leave
// the output untouched) on truncated input; callers surface that as a
// corruption status.
//
// The reader parses IN PLACE over the caller's bytes: it holds a view, never
// a copy, and `GetStringView` hands out sub-views that alias the underlying
// buffer. The buffer must outlive the reader and every view taken from it —
// copy (GetString) at the boundary where a field outlives the frame (see
// docs/PROTOCOLS.md, "Buffer ownership & zero-copy contract").
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* out) {
    if (pos_ + 1 > data_.size()) {
      return false;
    }
    *out = static_cast<uint8_t>(data_[pos_]);
    pos_ += 1;
    return true;
  }

  bool GetU32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) {
      return false;
    }
    std::memcpy(out, data_.data() + pos_, 4);
    pos_ += 4;
    return true;
  }

  bool GetU64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) {
      return false;
    }
    std::memcpy(out, data_.data() + pos_, 8);
    pos_ += 8;
    return true;
  }

  bool GetI64(int64_t* out) {
    uint64_t u = 0;
    if (!GetU64(&u)) {
      return false;
    }
    *out = static_cast<int64_t>(u);
    return true;
  }

  // Zero-copy string read: the view aliases the reader's underlying buffer.
  bool GetStringView(std::string_view* out) {
    uint32_t len = 0;
    if (!GetU32(&len) || len > remaining()) {
      return false;
    }
    *out = data_.substr(pos_, len);
    pos_ += len;
    return true;
  }

  // Copying string read, for fields that outlive the frame buffer.
  bool GetString(std::string* out) {
    std::string_view s;
    if (!GetStringView(&s)) {
      return false;
    }
    out->assign(s.data(), s.size());
    return true;
  }

  // `Container` is anything with clear/reserve/emplace_back over strings
  // (std::vector<std::string>, SmallVector<std::string, N>).
  template <typename Container>
  bool GetStringVector(Container* out) {
    uint32_t count = 0;
    if (!GetU32(&count)) {
      return false;
    }
    // Every element costs at least its 4-byte length prefix, so a count the
    // remaining bytes cannot possibly back is corrupt (or hostile — the
    // count may come off the wire; never reserve unbounded memory from it).
    if (count > remaining() / 4) {
      return false;
    }
    out->clear();
    out->reserve(count);
    // One pass: bounds-check a view of each element, then construct the
    // owned string directly in the vector slot (no intermediate string).
    for (uint32_t i = 0; i < count; ++i) {
      std::string_view s;
      if (!GetStringView(&s)) {
        return false;
      }
      out->emplace_back(s);
    }
    return true;
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace aft

#endif  // SRC_COMMON_SERDE_H_
