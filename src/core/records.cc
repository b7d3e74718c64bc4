#include "src/core/records.h"

#include "src/common/serde.h"

namespace aft {

using record_detail::kCommitRecordTag;
using record_detail::kVersionedValueTag;

std::string VersionStorageKey(const std::string& key, const Uuid& writer) {
  std::string out;
  out.reserve(sizeof(kVersionPrefix) - 1 + key.size() + 1 + Uuid::kStringLength);
  out += kVersionPrefix;
  out += key;
  out += '/';
  writer.AppendTo(out);
  return out;
}

std::string CommitStorageKey(const TxnId& id) {
  std::string out;
  out.reserve(sizeof(kCommitPrefix) - 1 + TxnId::kEncodedLength);
  out += kCommitPrefix;
  id.EncodeTo(out);
  return out;
}

TxnId TxnIdFromCommitStorageKey(const std::string& storage_key) {
  const size_t prefix_len = sizeof(kCommitPrefix) - 1;
  if (storage_key.size() <= prefix_len) {
    return TxnId();
  }
  return TxnId::Decode(storage_key.substr(prefix_len));
}

const VersionLocator* CommitRecord::FindLocator(const std::string& key) const {
  for (const VersionLocator& locator : locators) {
    if (locator.key == key) {
      return &locator;
    }
  }
  return nullptr;
}

std::string CommitRecord::Serialize() const {
  BinaryWriter w;
  w.Reserve(EncodedCommitRecordBytes(write_set, locators));
  EncodeCommitRecordFields(w, id, write_set, locators);
  return std::move(w).TakeData();
}

Result<CommitRecord> CommitRecord::Deserialize(std::string_view bytes) {
  BinaryReader r(bytes);
  uint8_t tag = 0;
  CommitRecord record;
  uint64_t hi = 0;
  uint64_t lo = 0;
  uint32_t segment_count = 0;
  uint32_t locator_count = 0;
  if (!r.GetU8(&tag) || tag != kCommitRecordTag || !r.GetI64(&record.id.timestamp) ||
      !r.GetU64(&hi) || !r.GetU64(&lo) || !r.GetStringVector(&record.write_set) ||
      !r.GetU32(&segment_count) || !r.GetU32(&locator_count)) {
    return Status::Internal("corrupt commit record");
  }
  // The reserved slots name a payload outside the record object, which no
  // reader can fetch: reject the record rather than read the wrong bytes.
  if (segment_count != 0) {
    return Status::Internal("corrupt commit record segment count");
  }
  // A locator is a length-prefixed key plus three u32s (>= 16 bytes); records
  // arrive over the gossip wire, so bound the reserve by what the remaining
  // bytes could actually hold.
  if (locator_count > r.remaining() / 16) {
    return Status::Internal("corrupt commit record locator count");
  }
  record.locators.reserve(locator_count);
  for (uint32_t i = 0; i < locator_count; ++i) {
    VersionLocator locator;
    uint32_t segment_index = 0;
    if (!r.GetString(&locator.key) || !r.GetU32(&segment_index) || !r.GetU32(&locator.offset) ||
        !r.GetU32(&locator.length)) {
      return Status::Internal("corrupt commit record locator");
    }
    if (segment_index != kInRecordSegment) {
      return Status::Internal("corrupt commit record locator segment");
    }
    record.locators.push_back(std::move(locator));
  }
  record.id.uuid = Uuid(hi, lo);
  return record;
}

std::string VersionedValue::Serialize() const {
  BinaryWriter w;
  w.Reserve(record_detail::kRecordHeaderBytes + EncodedStringVectorBytes(cowritten) + 4 +
            payload.size());
  EncodeVersionedValueFields(w, writer, cowritten, payload);
  return std::move(w).TakeData();
}

Result<VersionedValue> VersionedValue::Deserialize(std::string_view bytes) {
  BinaryReader r(bytes);
  uint8_t tag = 0;
  VersionedValue v;
  uint64_t hi = 0;
  uint64_t lo = 0;
  if (!r.GetU8(&tag) || tag != kVersionedValueTag || !r.GetI64(&v.writer.timestamp) ||
      !r.GetU64(&hi) || !r.GetU64(&lo) || !r.GetStringVector(&v.cowritten) ||
      !r.GetString(&v.payload)) {
    return Status::Internal("corrupt versioned value");
  }
  v.writer.uuid = Uuid(hi, lo);
  return v;
}

}  // namespace aft
