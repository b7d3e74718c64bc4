#include "src/core/read_algorithm.h"

#include <algorithm>
#include <vector>

namespace aft {
namespace {

// Lines 1-5: the transaction-ID lower bound from prior reads whose cowritten
// sets include `key`.
TxnId ReadLowerBound(const std::string& key,
                     const std::unordered_map<std::string, ReadSetEntry>& read_set) {
  TxnId lower = TxnId::Null();
  for (const auto& [read_key, entry] : read_set) {
    if (entry.record == nullptr) {
      continue;
    }
    const auto& cowritten = entry.record->write_set;
    if (std::find(cowritten.begin(), cowritten.end(), key) != cowritten.end()) {
      lower = std::max(lower, entry.version);
    }
  }
  return lower;
}

// Lines 14-19: whether T_t cowrote some key l that R read at a version older
// than t — returning k_t would mean we should have returned l_t earlier
// (case 2).
bool CowriteReadOlder(const CommitRecord& record, const TxnId& t,
                      const std::unordered_map<std::string, ReadSetEntry>& read_set) {
  for (const std::string& cowritten_key : record.write_set) {
    auto it = read_set.find(cowritten_key);
    if (it != read_set.end() && it->second.version < t) {
      return true;
    }
  }
  return false;
}

}  // namespace

AtomicReadChoice SelectAtomicReadVersion(
    const std::string& key, const std::unordered_map<std::string, ReadSetEntry>& read_set,
    const KeyVersionIndex& index, const CommitSetCache& commits) {
  const TxnId lower = ReadLowerBound(key, read_set);

  // Lines 6-9: if we know of no version at all and nothing constrains us,
  // the read observes the NULL version.
  const TxnId latest = index.LatestVersion(key);
  if (latest.IsNull() && lower.IsNull()) {
    return AtomicReadChoice{AtomicReadChoice::Kind::kNullVersion, TxnId::Null(), nullptr};
  }

  // Line 11: candidate versions of `key` at least as new as `lower`,
  // newest first.
  const std::vector<TxnId> candidates = index.CandidatesAtLeast(key, lower);

  // Lines 12-21: take the newest candidate that does not conflict with R.
  uint32_t examined = 0;
  for (const TxnId& t : candidates) {
    ++examined;
    CommitRecordPtr record = commits.Lookup(t);
    if (record == nullptr) {
      // Metadata GC'd between the index snapshot and now; we cannot check
      // its cowrites, so skip it (reads get staler, never incorrect).
      continue;
    }
    if (!CowriteReadOlder(*record, t, read_set)) {
      return AtomicReadChoice{AtomicReadChoice::Kind::kVersion, t, std::move(record), examined};
    }
  }

  // Lines 22-23: no valid version. If R places no lower bound on `key`, the
  // NULL version is still consistent (a snapshot from before `key` existed);
  // otherwise the transaction cannot proceed.
  if (lower.IsNull()) {
    return AtomicReadChoice{AtomicReadChoice::Kind::kNullVersion, TxnId::Null(), nullptr,
                            examined};
  }
  return AtomicReadChoice{AtomicReadChoice::Kind::kNoValidVersion, TxnId::Null(), nullptr,
                          examined};
}

bool IsValidAtomicRead(const std::string& key, const TxnId& version,
                       const CommitRecord* record,
                       const std::unordered_map<std::string, ReadSetEntry>& read_set) {
  const TxnId lower = ReadLowerBound(key, read_set);
  if (version.IsNull()) {
    return lower.IsNull();
  }
  return record != nullptr && version >= lower && !CowriteReadOlder(*record, version, read_set);
}

bool IsTransactionSuperseded(const CommitRecord& record, const KeyVersionIndex& index) {
  for (const std::string& key : record.write_set) {
    if (index.LatestVersion(key) <= record.id) {
      return false;
    }
  }
  return true;
}

}  // namespace aft
