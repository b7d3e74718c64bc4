#include "src/storage/sim_redis.h"

namespace aft {

Status SimRedis::MSet(std::span<const WriteOp> ops) {
  if (ops.empty()) {
    return Status::Ok();
  }
  const size_t shard = ShardOf(ops.front().key);
  for (const WriteOp& op : ops) {
    if (ShardOf(op.key) != shard) {
      return Status::InvalidArgument("CROSSSLOT keys in request don't hash to the same slot");
    }
  }
  ChargeBatchWrite(ops);
  const TimePoint now = clock_.Now();
  for (const WriteOp& op : ops) {
    map_.Put(op.key, op.value, now);
  }
  return Status::Ok();
}

}  // namespace aft
