// Simulated AWS DynamoDB.
//
// Behavioural model:
//  * per-item GET/PUT with single-digit-millisecond medians;
//  * BatchWriteItem: up to 25 items per request, non-atomic, far cheaper than
//    sequential PUTs (this is the batching AFT's commit protocol exploits,
//    Figure 2);
//  * eventually consistent reads for overwritten items (DynamoDB's default
//    read mode) — drives the Plain-DynamoDB anomaly counts of Table 2;
//  * transaction mode (§6.1.2, [13]): TransactGetItems / TransactWriteItems,
//    serializable, read-only XOR write-only, one API call per transaction,
//    proactive conflict aborts (TransactionCanceledException) that the
//    caller must retry.

#ifndef SRC_STORAGE_SIM_DYNAMO_H_
#define SRC_STORAGE_SIM_DYNAMO_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/mutex.h"
#include "src/storage/sim_engine_base.h"

namespace aft {

struct SimDynamoOptions {
  EngineLatencyProfile profile = {
      /*get=*/LatencyModel(4.0, 0.3, 1.2, 0.02),
      /*put=*/LatencyModel(4.5, 0.32, 1.5, 0.03),
      /*erase=*/LatencyModel(4.0, 0.3, 1.2),
      /*list=*/LatencyModel(12.0, 0.4, 4.0),
      /*batch_base=*/LatencyModel(4.8, 0.35, 1.8, 0.01),
      /*batch_per_item=*/LatencyModel(0.15, 0.2),
  };
  // Default (eventually consistent) reads can observe slightly stale data
  // for overwritten items.
  StalenessModel staleness = {/*stale_probability=*/0.35, /*mean_staleness=*/Millis(35)};
  // One TransactWriteItems/TransactGetItems call costs roughly 2-3x a plain
  // op (two-phase item locking inside DynamoDB).
  LatencyModel txn_call = LatencyModel(12.0, 0.4, 4.0, 0.03);
  size_t map_shards = 16;
};

// Counters specific to transaction mode.
struct DynamoTxnCounters {
  std::atomic<uint64_t> txn_gets{0};
  std::atomic<uint64_t> txn_writes{0};
  std::atomic<uint64_t> txn_conflicts{0};
};

class SimDynamo final : public SimEngineBase {
 public:
  explicit SimDynamo(Clock& clock, SimDynamoOptions options = {})
      : SimEngineBase("dynamodb", clock, options.profile, options.staleness, options.map_shards),
        txn_call_(options.txn_call) {}

  size_t MaxBatchSize() const override { return 25; }  // BatchWriteItem limit.
  double client_cpu_factor() const override { return 1.45; }  // HTTPS + JSON.

  // ---- Transaction mode ----------------------------------------------------
  // Serializable multi-item read. Returns one entry per key (nullopt for
  // missing keys), or kAborted if any key is locked by an in-flight
  // transactional write.
  Result<std::vector<std::optional<std::string>>> TransactGet(
      std::span<const std::string> keys);

  // Serializable atomic multi-item write. Returns kAborted on conflict with
  // a concurrent transactional operation on any of the keys.
  Status TransactWrite(std::span<const WriteOp> ops);

  const DynamoTxnCounters& txn_counters() const { return txn_counters_; }

 private:
  // Acquires all keys or none. Returns false on conflict.
  bool TryLockAll(std::span<const std::string> keys);
  void UnlockAll(std::span<const std::string> keys);

  const LatencyModel txn_call_;
  DynamoTxnCounters txn_counters_;
  Mutex lock_table_mu_;
  std::unordered_set<std::string> locked_keys_ GUARDED_BY(lock_table_mu_);
};

}  // namespace aft

#endif  // SRC_STORAGE_SIM_DYNAMO_H_
