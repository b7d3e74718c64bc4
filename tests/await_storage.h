// Test helpers for state a background thread reaches on its own. The
// node's spills (§3.3) land on a shared-executor helper after Put returns,
// so a test that asserts on storage contents before commit first waits for
// them to land.

#ifndef TESTS_AWAIT_STORAGE_H_
#define TESTS_AWAIT_STORAGE_H_

#include <chrono>
#include <string>
#include <thread>

#include "src/storage/storage_engine.h"

namespace aft {

// Polls `done` until it holds or 10 s pass; returns whether it held.
template <typename Pred>
bool Await(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Polls until `prefix` lists exactly `count` objects or 5 s pass; returns
// the last count seen.
inline size_t AwaitObjectCount(StorageEngine& storage, const std::string& prefix, size_t count) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  size_t seen = 0;
  while (true) {
    auto keys = storage.List(prefix);
    seen = keys.ok() ? keys->size() : 0;
    if (seen == count || std::chrono::steady_clock::now() > deadline) {
      return seen;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace aft

#endif  // TESTS_AWAIT_STORAGE_H_
