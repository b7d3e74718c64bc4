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
//
// Retention: history is kept only as far back as a stale read can reach,
// the map's retention horizon (StalenessModel::Retention()). An entry is
// dropped once its successor is older than the horizon, and a deleted key
// is erased once its tombstone is: each shard queues its tombstones and
// reaps the expired ones on its next mutation. A consistent engine's
// horizon is zero, so it keeps only each key's latest entry and erases a
// deleted key at once. The count cap (`history_depth`) bounds a key
// overwritten faster than the horizon expires.

#ifndef SRC_STORAGE_VERSIONED_MAP_H_
#define SRC_STORAGE_VERSIONED_MAP_H_

#include <deque>
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

  // How far back a stale read may reach: 25 mean stalenesses (a sampled
  // staleness exceeds that with probability e^-25, and is clamped to it);
  // zero for a consistent model.
  Duration Retention() const { return IsConsistent() ? Duration::zero() : 25 * mean_staleness; }
};

class VersionedMap {
 public:
  // `num_shards` bounds lock contention; `history_depth` bounds the per-key
  // version list used for stale reads; `retention` is the horizon past which
  // history is dropped (see the file comment; the default keeps it all).
  explicit VersionedMap(size_t num_shards = 16, size_t history_depth = 8,
                        Duration retention = Duration::max());

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

  // Removes the key at time `now`: writes a tombstone, so stale reads inside
  // the retention horizon still see the pre-delete value, and erases the key
  // once the tombstone is past the horizon. Deleting a deleted or absent key
  // changes nothing.
  void Delete(const std::string& key, TimePoint now);

  // Lexicographically ordered live keys with the given prefix.
  std::vector<std::string> List(const std::string& prefix) const;

  // True if the key has been overwritten (or deleted) at least once, even
  // where retention has since dropped the older entries (drives the
  // staleness-only-on-overwrite rule). False once a deleted key is erased.
  bool HasHistory(const std::string& key) const;

  size_t ApproximateKeyCount() const;
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    std::optional<std::string> value;  // nullopt == tombstone.
    TimePoint write_time;
  };
  // AFT's own data never overwrites a key (§3.3), so the history of almost
  // every key is one entry, or one and the tombstone the GC's delete adds —
  // both stored inline in the map node. Tree nodes recycle through a
  // per-shard pool, so steady-state Put/Delete churn stops hitting the
  // global heap. `overwritten` outlives the entries retention drops.
  struct Slot {
    SmallVector<Entry, 2> history;  // Never empty.
    bool overwritten = false;
  };
  using ShardMap = std::map<std::string, Slot, std::less<>,
                            PoolAllocator<std::pair<const std::string, Slot>>>;
  struct Shard {
    mutable Mutex mu;
    ShardMap data GUARDED_BY(mu);
    // (deletion time, key), oldest first.
    std::deque<std::pair<TimePoint, std::string>> tombstones GUARDED_BY(mu);
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  // Appends `entry` to `slot` and drops what no read can reach any more.
  void Append(Slot& slot, Entry entry) const;
  // Erases the keys whose tombstones are past the horizon at `now`.
  void ReapTombstones(Shard& shard, TimePoint now) const REQUIRES(shard.mu);

  const size_t history_depth_;
  const Duration retention_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace aft

#endif  // SRC_STORAGE_VERSIONED_MAP_H_
