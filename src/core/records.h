// Persistent record formats and the storage key layout.
//
// AFT persists two kinds of records (§3.3):
//
//  * key versions   — "v/<user key>/<uuid>". Each transaction's update of a
//                     key goes to a unique storage key (never overwritten),
//                     so concurrent AFT nodes cannot clobber each other. The
//                     stored bytes are a `VersionedValue`: the payload plus
//                     the writing transaction's ID and cowritten-key set.
//  * commit records — "c/<zero-padded ts>_<uuid>" in the Transaction Commit
//                     Set. Written strictly AFTER all of the transaction's
//                     key versions are durable; its presence is what makes
//                     the transaction's updates visible. The key is unique
//                     per commit attempt, so no other commit overwrites a
//                     record. StorageEngine::Commit CREATES it with a
//                     conditional PutIfAbsent, which an engine may hedge
//                     with a second identical create
//                     (src/storage/record_writer.h). At most one attempt
//                     lands, so "already exists" means created. The
//                     committing node pins the record against GC while a
//                     losing attempt is still in flight. Only LocalEngine's
//                     fused WAL append writes records with plain puts; it
//                     never hedges, so each record key sees exactly one
//                     write there.
//
// A payload lives in one of two places, named by the record:
//
//  * its version object, when the record has no locator for the key — the
//    layout on an engine that fuses a commit's data ops with its record in
//    one write (StorageEngine::CommitUnitsFuseDataWithRecord: the local
//    engine's WAL append), and for a key the write buffer spilled (§3.3);
//  * inside the commit record's own object, when the record has a locator
//    for the key: the stored object is the record's encoded fields followed
//    by these payloads, so the record and its data become durable in ONE
//    write and the §3.3 ordering holds by construction. This is the layout
//    on every other engine, and on every engine the place of a key whose
//    version object may already exist (rewritten after a spill, or sent by
//    a failed commit round): a version object is never overwritten.
//
// The version key uses only the UUID (not the commit timestamp) because the
// write buffer may spill versions to storage *before* the commit timestamp
// is assigned (§3.3). Readers fetch an in-record payload with a ranged GET;
// the record's wire form (gossip, the commit-set cache) is its fields only
// — CommitRecord never holds payloads, and Deserialize ignores the bytes
// after the fields.

#ifndef SRC_CORE_RECORDS_H_
#define SRC_CORE_RECORDS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/serde.h"
#include "src/common/status.h"
#include "src/core/txn_id.h"

namespace aft {

// Storage key prefixes.
inline constexpr char kVersionPrefix[] = "v/";
inline constexpr char kCommitPrefix[] = "c/";

// "v/<key>/<uuid>".
std::string VersionStorageKey(const std::string& key, const Uuid& writer);

// "c/<encoded txn id>".
std::string CommitStorageKey(const TxnId& id);

// Extracts the transaction ID back out of a commit storage key.
TxnId TxnIdFromCommitStorageKey(const std::string& storage_key);

// The value of each locator's reserved segment slot in the encoded record
// (protocol v1, docs/PROTOCOLS.md): the payload sits inside the commit
// record's own object. The record's reserved segment-count slot is 0.
inline constexpr uint32_t kInRecordSegment = UINT32_MAX;

// Where a payload lives inside the commit record object: `offset` is
// absolute in that object.
struct VersionLocator {
  std::string key;
  uint32_t offset = 0;
  uint32_t length = 0;
};

// A committed transaction: its ID and write set (key names; the versions are
// implied — every version in a transaction carries the transaction's ID).
// The cowritten set of any version ki equals Ti's write set (§3.2).
//
// A key with a locator has its payload inside the record object and a key
// without one lives in its version object.
struct CommitRecord {
  TxnId id;
  std::vector<std::string> write_set;
  std::vector<VersionLocator> locators;

  const VersionLocator* FindLocator(const std::string& key) const;

  std::string Serialize() const;
  static Result<CommitRecord> Deserialize(std::string_view bytes);
};

// One stored key version: payload plus the metadata Algorithm 1 needs.
struct VersionedValue {
  TxnId writer;                        // Assigned at commit; zero if written early.
  std::vector<std::string> cowritten;  // == writer's write set.
  std::string payload;

  std::string Serialize() const;
  static Result<VersionedValue> Deserialize(std::string_view bytes);
};

// ---- Direct-field encoders (the allocation-free commit path) ---------------
// Append the exact Serialize() byte sequences straight from the caller's
// fields, without materializing a CommitRecord / VersionedValue first. The
// struct Serialize() methods call these same bodies, so the two can never
// diverge. Templates over the writer: both the flat BinaryWriter and the
// segment-backed ArenaWriter (src/common/arena.h) instantiate them.

namespace record_detail {
inline constexpr uint8_t kCommitRecordTag = 0xC1;
inline constexpr uint8_t kVersionedValueTag = 0xD2;
// tag + timestamp + uuid hi + uuid lo.
inline constexpr size_t kRecordHeaderBytes = 1 + 8 + 8 + 8;
}  // namespace record_detail

// Encoded size of a PutStringVector over `keys` — lets Serialize() reserve
// the exact output size so the hot path allocates its buffer exactly once.
template <typename Keys>
size_t EncodedStringVectorBytes(const Keys& keys) {
  size_t bytes = 4;
  for (const auto& key : keys) {
    bytes += 4 + std::string_view(key).size();
  }
  return bytes;
}

// Encoded size of a commit record's fields. Every locator field but the key
// is a fixed-width u32, so the size is known before the offsets are: an
// in-record payload's absolute offset is this size plus its place among the
// payloads.
template <typename Keys>
size_t EncodedCommitRecordBytes(const Keys& write_set,
                                const std::vector<VersionLocator>& locators) {
  size_t bytes = record_detail::kRecordHeaderBytes + EncodedStringVectorBytes(write_set) + 4 + 4;
  for (const VersionLocator& locator : locators) {
    bytes += 4 + locator.key.size() + 12;
  }
  return bytes;
}

// `Keys` is any sized range of string-view-convertible elements: the stored
// vector of a materialized record, or a keys view straight over the
// transaction's write buffer (the allocation-free commit path encodes from
// the buffer without building an intermediate vector).
template <typename W, typename Keys>
void EncodeCommitRecordFields(W& w, const TxnId& id, const Keys& write_set,
                              const std::vector<VersionLocator>& locators) {
  w.PutU8(record_detail::kCommitRecordTag);
  w.PutI64(id.timestamp);
  w.PutU64(id.uuid.hi());
  w.PutU64(id.uuid.lo());
  w.PutStringVector(write_set);
  w.PutU32(0);  // Reserved segment count.
  w.PutU32(static_cast<uint32_t>(locators.size()));
  for (const VersionLocator& locator : locators) {
    w.PutString(locator.key);
    w.PutU32(kInRecordSegment);
    w.PutU32(locator.offset);
    w.PutU32(locator.length);
  }
}

// Everything but the payload bytes: the fields up to and including the
// payload's length prefix, so a caller can fill the payload in place.
template <typename W, typename Keys>
void EncodeVersionedValueHeader(W& w, const TxnId& writer, const Keys& cowritten,
                                size_t payload_bytes) {
  w.PutU8(record_detail::kVersionedValueTag);
  w.PutI64(writer.timestamp);
  w.PutU64(writer.uuid.hi());
  w.PutU64(writer.uuid.lo());
  w.PutStringVector(cowritten);
  w.PutU32(static_cast<uint32_t>(payload_bytes));
}

template <typename W, typename Keys>
void EncodeVersionedValueFields(W& w, const TxnId& writer, const Keys& cowritten,
                                std::string_view payload) {
  EncodeVersionedValueHeader(w, writer, cowritten, payload.size());
  w.PutRaw(payload);
}

}  // namespace aft

#endif  // SRC_CORE_RECORDS_H_
