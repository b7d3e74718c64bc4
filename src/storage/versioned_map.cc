#include "src/storage/versioned_map.h"

#include <algorithm>
#include <functional>

namespace aft {

VersionedMap::VersionedMap(size_t num_shards, size_t history_depth, Duration retention)
    : history_depth_(std::max<size_t>(history_depth, 1)), retention_(retention) {
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

void VersionedMap::Append(Slot& slot, Entry entry) const {
  const TimePoint now = entry.write_time;
  auto& history = slot.history;
  slot.overwritten = slot.overwritten || !history.empty();
  history.push_back(std::move(entry));
  // No read reaches back past the horizon, so an entry whose successor is
  // older than the horizon is never served again.
  while (history.size() > 1 &&
         (history.size() > history_depth_ || now - history[1].write_time >= retention_)) {
    history.erase(history.begin());
  }
}

void VersionedMap::ReapTombstones(Shard& shard, TimePoint now) const {
  while (!shard.tombstones.empty() && now - shard.tombstones.front().first >= retention_) {
    const auto& [deleted_at, key] = shard.tombstones.front();
    auto it = shard.data.find(key);
    // A key written again since its deletion is no longer deleted.
    if (it != shard.data.end() && !it->second.history.back().value.has_value() &&
        it->second.history.back().write_time == deleted_at) {
      shard.data.erase(it);
    }
    shard.tombstones.pop_front();
  }
}

void VersionedMap::Put(std::string key, std::string value, TimePoint now) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  ReapTombstones(shard, now);
  Append(shard.data[std::move(key)], Entry{std::move(value), now});
}

bool VersionedMap::PutIfAbsent(std::string key, std::string value, TimePoint now) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  ReapTombstones(shard, now);
  // try_emplace leaves `key` untouched when it is already present.
  Slot& slot = shard.data.try_emplace(std::move(key)).first->second;
  if (!slot.history.empty() && slot.history.back().value.has_value()) {
    return false;
  }
  Append(slot, Entry{std::move(value), now});
  return true;
}

std::optional<std::string> VersionedMap::Get(const std::string& key, TimePoint as_of,
                                             bool* was_stale) const {
  const Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.data.find(key);
  if (it == shard.data.end()) {
    return std::nullopt;
  }
  const auto& history = it->second.history;
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
  if (it == shard.data.end()) {
    return std::nullopt;
  }
  return it->second.history.back().value;
}

void VersionedMap::Delete(const std::string& key, TimePoint now) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  ReapTombstones(shard, now);
  auto it = shard.data.find(key);
  if (it == shard.data.end() || !it->second.history.back().value.has_value()) {
    return;
  }
  Append(it->second, Entry{std::nullopt, now});
  // A history of tombstones alone reads as an absent key: erase it now.
  const auto& history = it->second.history;
  if (std::none_of(history.begin(), history.end(),
                   [](const Entry& e) { return e.value.has_value(); })) {
    shard.data.erase(it);
  } else if (retention_ != Duration::max()) {
    shard.tombstones.emplace_back(now, key);
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
      if (it->second.history.back().value.has_value()) {
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
  return it != shard.data.end() && it->second.overwritten;
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
