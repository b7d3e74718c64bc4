// Sharded in-memory backing store with per-key version history.
//
// Every simulated engine is backed by one of these. The version history (a
// short list of <value, write time> entries per key) exists solely to model
// *eventual consistency*: a stale read is served the value that was current
// at `now - staleness` for a sampled staleness. AFT itself never overwrites
// keys, so its own data is immune to staleness by construction — exactly the
// property the paper's protocols rely on (each key version maps to a unique
// storage key, §3.3). Commit records are covered too: each is written with
// PutIfAbsent, so a second attempt at the same record (a hedge) lands no
// second entry.

#ifndef SRC_STORAGE_VERSIONED_MAP_H_
#define SRC_STORAGE_VERSIONED_MAP_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/pool_allocator.h"
#include "src/common/small_vector.h"

namespace aft {

// Staleness model for eventually consistent reads. A read is stale with
// probability `stale_probability`; a stale read observes the state as of
// `now - Exp(mean_staleness)`. Staleness applies only to keys that have been
// overwritten (new-key PUTs are read-after-write consistent, matching
// 2020-era S3 and making AFT's never-overwrite layout immune).
struct StalenessModel {
  double stale_probability = 0.0;
  Duration mean_staleness = Duration::zero();

  bool IsConsistent() const { return stale_probability <= 0.0; }
};

class VersionedMap {
 public:
  // `num_shards` bounds lock contention; `history_depth` bounds the per-key
  // version list used for stale reads.
  explicit VersionedMap(size_t num_shards = 16, size_t history_depth = 8);

  // Writes `key = value` at time `now`. By-value: hot callers move exact-
  // sized buffers straight into the map (a fresh key's string and first
  // history entry land inline / pooled without a copy).
  void Put(std::string key, std::string value, TimePoint now);

  // Writes `key = value` at time `now` only if the key holds no live value
  // (absent, or deleted); returns whether it wrote. The check and the write
  // are one step under the shard lock.
  bool PutIfAbsent(std::string key, std::string value, TimePoint now);

  // Returns the value visible at time `as_of` (the newest entry written at
  // or before `as_of`); nullopt if the key did not exist then. `was_stale`
  // (optional) reports whether an older-than-latest entry was served.
  std::optional<std::string> Get(const std::string& key, TimePoint as_of,
                                 bool* was_stale = nullptr) const;

  // Returns the latest value regardless of as_of.
  std::optional<std::string> GetLatest(const std::string& key) const;

  // Removes the key at time `now` (writes a tombstone so in-flight stale
  // reads can still see the pre-delete value).
  void Delete(const std::string& key, TimePoint now);

  // Lexicographically ordered live keys with the given prefix.
  std::vector<std::string> List(const std::string& prefix) const;

  // True if the key has been overwritten at least once (drives the
  // staleness-only-on-overwrite rule).
  bool HasHistory(const std::string& key) const;

  size_t ApproximateKeyCount() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::optional<std::string> value;  // nullopt == tombstone.
    TimePoint write_time;
  };
  // AFT's own data never overwrites a key (§3.3), so the history of almost
  // every key is exactly one entry — stored inline in the map node. Tree
  // nodes recycle through a per-shard pool, so steady-state Put/Delete churn
  // stops hitting the global heap.
  using History = SmallVector<Entry, 1>;
  using ShardMap = std::map<std::string, History, std::less<>,
                            PoolAllocator<std::pair<const std::string, History>>>;
  struct Shard {
    mutable Mutex mu;
    ShardMap data GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;

  const size_t history_depth_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace aft

#endif  // SRC_STORAGE_VERSIONED_MAP_H_
