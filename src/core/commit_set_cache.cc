#include "src/core/commit_set_cache.h"

#include <algorithm>

#include "src/common/io_executor.h"
#include "src/common/logging.h"
#include "src/storage/sim_engine_base.h"

namespace aft {

std::vector<CommitRecordPtr> FetchCommitRecords(StorageEngine& storage,
                                                std::span<const std::string> keys,
                                                size_t max_parallelism, std::string_view who) {
  // A lane claims kChunk keys at a time. The bytes of one window are held
  // at once, never every object of a long scan.
  constexpr size_t kChunk = 32;
  constexpr size_t kWindow = 32 * kChunk;
  std::vector<CommitRecordPtr> records(keys.size());
  std::vector<Result<std::string>> bytes;
  for (size_t base = 0; base < keys.size(); base += kWindow) {
    const std::span<const std::string> part =
        keys.subspan(base, std::min(kWindow, keys.size() - base));
    bytes.assign(part.size(), Status::NotFound(""));
    (void)IoExecutor::Shared().ParallelFor(
        (part.size() + kChunk - 1) / kChunk,
        [&](size_t chunk) {
          for (size_t i = chunk * kChunk; i < std::min(part.size(), (chunk + 1) * kChunk); ++i) {
            bytes[i] = MaintenanceRead(storage, part[i]);
          }
          return Status::Ok();
        },
        max_parallelism);
    for (size_t i = 0; i < part.size(); ++i) {
      if (!bytes[i].ok()) {
        continue;  // Deleted by the global GC since the listing.
      }
      auto record = CommitRecord::Deserialize(bytes[i].value());
      if (!record.ok()) {
        AFT_LOG(Warn) << who << ": skipping corrupt commit record " << part[i];
        continue;
      }
      records[base + i] = std::make_shared<const CommitRecord>(std::move(record).value());
    }
  }
  return records;
}

bool CommitSetCache::Add(CommitRecordPtr record) {
  const TxnId id = record->id;
  Shard& shard = ShardFor(id);
  WriterMutexLock lock(shard.mu);
  return shard.records.emplace(id, std::move(record)).second;
}

void CommitSetCache::Remove(const TxnId& id) {
  Shard& shard = ShardFor(id);
  WriterMutexLock lock(shard.mu);
  if (shard.records.erase(id) > 0) {
    shard.locally_deleted.insert(id);
  }
}

CommitRecordPtr CommitSetCache::Lookup(const TxnId& id) const {
  const Shard& shard = ShardFor(id);
  ReaderMutexLock lock(shard.mu);
  auto it = shard.records.find(id);
  if (it == shard.records.end()) {
    lookup_misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lookup_hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

bool CommitSetCache::Contains(const TxnId& id) const {
  const Shard& shard = ShardFor(id);
  ReaderMutexLock lock(shard.mu);
  return shard.records.contains(id);
}

std::vector<CommitRecordPtr> CommitSetCache::Snapshot() const {
  std::vector<CommitRecordPtr> out;
  for (const Shard& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    out.reserve(out.size() + shard.records.size());
    for (const auto& [id, record] : shard.records) {
      out.push_back(record);
    }
  }
  return out;
}

void CommitSetCache::NoteLocalCommit(const TxnId& id) {
  MutexLock lock(recent_mu_);
  recent_commits_.push_back(id);
}

std::vector<TxnId> CommitSetCache::TakeRecentCommits() {
  MutexLock lock(recent_mu_);
  std::vector<TxnId> out;
  out.swap(recent_commits_);
  return out;
}

bool CommitSetCache::HasLocallyDeleted(const TxnId& id) const {
  const Shard& shard = ShardFor(id);
  ReaderMutexLock lock(shard.mu);
  return shard.locally_deleted.contains(id);
}

void CommitSetCache::ForgetLocallyDeleted(const TxnId& id) {
  Shard& shard = ShardFor(id);
  WriterMutexLock lock(shard.mu);
  shard.locally_deleted.erase(id);
}

size_t CommitSetCache::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    ReaderMutexLock lock(shard.mu);
    total += shard.records.size();
  }
  return total;
}

size_t CommitSetCache::ShardSize(size_t i) const {
  const Shard& shard = shards_[i % kNumShards];
  ReaderMutexLock lock(shard.mu);
  return shard.records.size();
}

}  // namespace aft
