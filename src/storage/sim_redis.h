// Simulated Redis in cluster mode (as deployed via AWS ElastiCache).
//
// Behavioural model (§6.1.2, §6.3):
//  * very low IO latency (memory-speed KVS);
//  * linearizable within a shard, no guarantees across shards — reads are
//    never stale, but multi-key operations are not atomic across shards;
//  * MSET exists but "can only modify keys in a single shard", so a client
//    writing arbitrary keys cannot batch: BatchPut degrades to one SET per
//    write (1 API call each, issued concurrently), exactly as the paper
//    describes for AFT-R.

#ifndef SRC_STORAGE_SIM_REDIS_H_
#define SRC_STORAGE_SIM_REDIS_H_

#include <functional>
#include <string>

#include "src/storage/sim_engine_base.h"

namespace aft {

struct SimRedisOptions {
  // Paper default: cluster mode with 2 shards.
  size_t num_shards = 2;
  EngineLatencyProfile profile = {
      /*get=*/LatencyModel(0.55, 0.25, 0.2, 0.01),
      /*put=*/LatencyModel(0.65, 0.25, 0.25, 0.015),
      /*erase=*/LatencyModel(0.6, 0.25, 0.2),
      /*list=*/LatencyModel(2.0, 0.3, 0.5),
      /*batch_base=*/LatencyModel(0.8, 0.25, 0.3),      // MSET, single shard only.
      /*batch_per_item=*/LatencyModel(0.02, 0.0),
  };
  size_t map_shards = 16;
};

class SimRedis final : public SimEngineBase {
 public:
  explicit SimRedis(Clock& clock, SimRedisOptions options = {})
      : SimEngineBase("redis", clock, options.profile,
                      StalenessModel{},  // Linearizable per shard: never stale.
                      options.map_shards),
        num_shards_(options.num_shards == 0 ? 1 : options.num_shards) {}

  // Cluster-mode Redis cannot batch across shards; AFT therefore issues one
  // SET per write (§6.1.2 "cannot consistently batch updates").
  size_t MaxBatchSize() const override { return 1; }

  // The hash slot (shard) serving `key`.
  size_t ShardOf(const std::string& key) const {
    return std::hash<std::string>{}(key) % num_shards_;
  }

  // MSET: atomic multi-key write *within one shard*. Returns
  // kInvalidArgument (CROSSSLOT in real Redis) if the keys span shards.
  Status MSet(std::span<const WriteOp> ops);

  size_t num_shards() const { return num_shards_; }

 private:
  const size_t num_shards_;
};

}  // namespace aft

#endif  // SRC_STORAGE_SIM_REDIS_H_
