#include "src/storage/versioned_map.h"

#include <algorithm>
#include <functional>

namespace aft {

VersionedMap::VersionedMap(size_t num_shards, size_t history_depth)
    : history_depth_(std::max<size_t>(history_depth, 1)) {
  const size_t n = std::max<size_t>(num_shards, 1);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

VersionedMap::Shard& VersionedMap::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

const VersionedMap::Shard& VersionedMap::ShardFor(const std::string& key) const {
  return *shards_[std::hash<std::string>{}(key) % shards_.size()];
}

void VersionedMap::Put(std::string key, std::string value, TimePoint now) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto& history = shard.data[std::move(key)];
  history.push_back(Entry{std::move(value), now});
  while (history.size() > history_depth_) {
    history.erase(history.begin());
  }
}

bool VersionedMap::PutIfAbsent(std::string key, std::string value, TimePoint now) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  // try_emplace leaves `key` untouched when it is already present.
  auto& history = shard.data.try_emplace(std::move(key)).first->second;
  if (!history.empty() && history.back().value.has_value()) {
    return false;
  }
  history.push_back(Entry{std::move(value), now});
  while (history.size() > history_depth_) {
    history.erase(history.begin());
  }
  return true;
}

std::optional<std::string> VersionedMap::Get(const std::string& key, TimePoint as_of,
                                             bool* was_stale) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.data.find(key);
  if (it == shard.data.end() || it->second.empty()) {
    return std::nullopt;
  }
  const auto& history = it->second;
  // Newest entry with write_time <= as_of. History is append-ordered.
  const Entry* chosen = nullptr;
  for (auto rit = history.rbegin(); rit != history.rend(); ++rit) {
    if (rit->write_time <= as_of) {
      chosen = &*rit;
      break;
    }
  }
  if (chosen == nullptr) {
    // Key created entirely after as_of: invisible to this (stale) read.
    if (was_stale != nullptr) {
      *was_stale = true;
    }
    return std::nullopt;
  }
  if (was_stale != nullptr) {
    *was_stale = (chosen != &history.back());
  }
  return chosen->value;  // May be nullopt if the chosen entry is a tombstone.
}

std::optional<std::string> VersionedMap::GetLatest(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.data.find(key);
  if (it == shard.data.end() || it->second.empty()) {
    return std::nullopt;
  }
  return it->second.back().value;
}

void VersionedMap::Delete(const std::string& key, TimePoint now) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.data.find(key);
  if (it == shard.data.end()) {
    return;
  }
  it->second.push_back(Entry{std::nullopt, now});
  while (it->second.size() > history_depth_) {
    it->second.erase(it->second.begin());
  }
  // If the whole history is tombstones we can drop the key eagerly; this
  // keeps List() and memory usage honest for GC-heavy workloads.
  const bool all_tombstones = std::all_of(it->second.begin(), it->second.end(),
                                          [](const Entry& e) { return !e.value.has_value(); });
  if (all_tombstones) {
    shard.data.erase(it);
  }
}

std::vector<std::string> VersionedMap::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    auto it = shard->data.lower_bound(prefix);
    for (; it != shard->data.end(); ++it) {
      if (it->first.compare(0, prefix.size(), prefix) != 0) {
        break;
      }
      if (!it->second.empty() && it->second.back().value.has_value()) {
        out.push_back(it->first);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool VersionedMap::HasHistory(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.data.find(key);
  return it != shard.data.end() && it->second.size() > 1;
}

size_t VersionedMap::ApproximateKeyCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    MutexLock lock(shard->mu);
    total += shard->data.size();
  }
  return total;
}

}  // namespace aft
