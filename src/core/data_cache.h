// Node-local data cache (§3.1, evaluated in §6.2).
//
// Caches the *payloads* of a subset of the key versions present in the
// metadata cache, keyed by version storage key. Since key versions are
// immutable (AFT never overwrites an object: version objects have unique
// keys, commit records, which may carry payloads, have keys unique per
// commit attempt, and a hedged record write is a conditional PutIfAbsent),
// cache entries can never be stale — the only policy question is eviction,
// which is LRU by byte budget.

#ifndef SRC_CORE_DATA_CACHE_H_
#define SRC_CORE_DATA_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "src/common/mutex.h"
#include "src/common/pool_allocator.h"

namespace aft {

class DataCache {
 public:
  // `capacity_bytes` == 0 disables caching entirely.
  explicit DataCache(uint64_t capacity_bytes);

  // Returns the cached payload and refreshes recency.
  std::optional<std::string> Get(const std::string& version_key);

  // Inserts (or refreshes) an entry, evicting LRU entries over budget.
  // Both parameters move into the cache (the commit path hands over its
  // exact-sized version key instead of having the cache copy it).
  void Put(std::string version_key, std::string payload);

  // Drops an entry (used when GC deletes the underlying version).
  void Erase(const std::string& version_key);

  bool enabled() const { return capacity_bytes_ > 0; }
  uint64_t size_bytes() const;
  size_t entry_count() const;

  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::string key;
    std::string payload;
  };
  // List and index nodes recycle through pools; the index keys are views
  // aliasing Entry::key (list nodes are address-stable, and splice never
  // moves them), so each cached version stores its key exactly once.
  using LruList = std::list<Entry, PoolAllocator<Entry>>;
  using Index =
      std::unordered_map<std::string_view, LruList::iterator, std::hash<std::string_view>,
                         std::equal_to<std::string_view>,
                         PoolAllocator<std::pair<const std::string_view, LruList::iterator>>>;

  void EvictOverBudgetLocked() REQUIRES(mu_);

  const uint64_t capacity_bytes_;
  mutable Mutex mu_;
  LruList lru_ GUARDED_BY(mu_);  // Front == most recently used.
  Index index_ GUARDED_BY(mu_);
  uint64_t used_bytes_ GUARDED_BY(mu_) = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace aft

#endif  // SRC_CORE_DATA_CACHE_H_
