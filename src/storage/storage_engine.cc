#include "src/storage/storage_engine.h"

#include <chrono>
#include <utility>

#include "src/common/contention.h"
#include "src/common/io_executor.h"
#include "src/common/small_vector.h"

namespace aft {

namespace {

using StageClock = std::chrono::steady_clock;

}  // namespace

Status StorageEngine::CreateCommitRecord(WriteOp& record, RecordWriteListener* /*listener*/) {
  // No write outlives this call, so there is nothing to tell the listener.
  Status created = PutIfAbsent(std::move(record.key), std::move(record.value));
  return created.code() == StatusCode::kAlreadyExists ? Status::Ok() : created;
}

void StorageEngine::BatchPutEach(std::span<WriteOp> ops, std::span<Status> statuses) {
  for (size_t i = 0; i < ops.size(); ++i) {
    statuses[i] = Put(std::move(ops[i].key), std::move(ops[i].value));
  }
}

void StorageEngine::CommitUnits(std::span<CommitUnit> units, std::span<Status> results,
                                CommitStageProfile* profile) {
  for (Status& r : results) {
    r = Status::Ok();
  }
  if (units.empty()) {
    return;
  }
  // Stage attribution (both rounds): wall time of the data round minus the
  // ParallelFor straggler wait is data_flush, the straggler wait itself is
  // the §3.3 barrier, and the record round's wall time is record_write.
  // The engines' concurrent batch dispatch runs ParallelFor on THIS thread,
  // so the thread-local latch accumulator attributes correctly; consuming
  // it up front discards any stale remainder from unrelated calls.
  const bool timed = profile != nullptr && contention::StageTimingEnabled();
  if (timed) {
    IoExecutor::ConsumeLatchWaitNanos();
  }
  if (units.size() == 1) {
    // Solo path: the data flush, then the record once the flush is
    // acknowledged — no merging overhead and no extra allocations.
    // Stage boundaries are shared clock readings (see CommitStageProfile):
    // two reads total when the caller supplied `start`.
    const auto flush_start =
        !timed ? StageClock::time_point{}
        : profile->start != StageClock::time_point{} ? profile->start
                                                     : StageClock::now();
    Status flushed = BatchPutConsume(units[0].data_ops);
    StageClock::time_point flush_end{};
    if (timed) {
      flush_end = StageClock::now();
      const double flush_wall_s = std::chrono::duration<double>(flush_end - flush_start).count();
      profile->barrier_s = static_cast<double>(IoExecutor::ConsumeLatchWaitNanos()) * 1e-9;
      profile->data_flush_s = flush_wall_s - profile->barrier_s;
    }
    if (flushed.ok() && units[0].after_data_write) {
      flushed = units[0].after_data_write();
      if (timed) {
        // The hook is part of the barrier; record_write opens where it ends.
        const auto hook_end = StageClock::now();
        profile->barrier_s += std::chrono::duration<double>(hook_end - flush_end).count();
        flush_end = hook_end;
      }
    }
    if (!flushed.ok()) {
      results[0] = std::move(flushed);
      return;
    }
    results[0] = CreateCommitRecord(units[0].commit_record, units[0].record_listener);
    if (timed) {
      profile->end = StageClock::now();
      profile->record_write_s = std::chrono::duration<double>(profile->end - flush_end).count();
    }
    return;
  }

  // Round 1: every unit's data versions in one merged write. `owner` maps
  // each flattened op back to its unit so a per-op failure poisons exactly
  // that unit.
  SmallVector<WriteOp, 16> flat;
  SmallVector<size_t, 16> owner;
  for (size_t u = 0; u < units.size(); ++u) {
    for (WriteOp& op : units[u].data_ops) {
      flat.push_back(std::move(op));
      owner.push_back(u);
    }
  }
  SmallVector<Status, 16> op_status;
  op_status.reserve(flat.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    op_status.push_back(Status::Ok());
  }
  const auto flush_start =
      !timed ? StageClock::time_point{}
      : profile->start != StageClock::time_point{} ? profile->start
                                                   : StageClock::now();
  BatchPutEach(std::span<WriteOp>(flat.data(), flat.size()),
               std::span<Status>(op_status.data(), op_status.size()));
  StageClock::time_point flush_end{};
  if (timed) {
    flush_end = StageClock::now();
    const double flush_wall_s = std::chrono::duration<double>(flush_end - flush_start).count();
    profile->barrier_s = static_cast<double>(IoExecutor::ConsumeLatchWaitNanos()) * 1e-9;
    profile->data_flush_s = flush_wall_s - profile->barrier_s;
  }
  for (size_t i = 0; i < op_status.size(); ++i) {
    if (!op_status[i].ok() && results[owner[i]].ok()) {
      results[owner[i]] = std::move(op_status[i]);
    }
  }
  bool hooked = false;
  for (size_t u = 0; u < units.size(); ++u) {
    if (results[u].ok() && units[u].after_data_write) {
      results[u] = units[u].after_data_write();
      hooked = true;
    }
  }
  if (hooked && timed) {
    const auto hooks_end = StageClock::now();
    profile->barrier_s += std::chrono::duration<double>(hooks_end - flush_end).count();
    flush_end = hooks_end;
  }

  // Round 2: commit records of the surviving units only. BatchPutEach
  // returns after every round-1 write completed (the engines' batch calls
  // are synchronous), so this round starts strictly after each survivor's
  // data is durable — the §3.3 barrier, paid once for the whole batch.
  SmallVector<WriteOp, 16> records;
  SmallVector<size_t, 16> record_owner;
  for (size_t u = 0; u < units.size(); ++u) {
    if (results[u].ok()) {
      records.push_back(std::move(units[u].commit_record));
      record_owner.push_back(u);
    }
  }
  if (records.empty()) {
    return;
  }
  SmallVector<Status, 16> record_status;
  record_status.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    record_status.push_back(Status::Ok());
  }
  BatchPutEach(std::span<WriteOp>(records.data(), records.size()),
               std::span<Status>(record_status.data(), record_status.size()));
  if (timed) {
    // record_write opens at the shared flush boundary (absorbing the
    // record-assembly loop above) and its internal straggler wait is part of
    // writing the records, not a second barrier; fold it in and reset the
    // accumulator.
    profile->end = StageClock::now();
    profile->record_write_s = std::chrono::duration<double>(profile->end - flush_end).count();
    IoExecutor::ConsumeLatchWaitNanos();
  }
  for (size_t i = 0; i < record_status.size(); ++i) {
    results[record_owner[i]] = std::move(record_status[i]);
  }
}

}  // namespace aft
