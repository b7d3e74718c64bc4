#include "src/storage/storage_engine.h"

#include <chrono>
#include <utility>

#include "src/common/contention.h"
#include "src/common/io_executor.h"

namespace aft {

namespace {

using StageClock = std::chrono::steady_clock;

}  // namespace

Status StorageEngine::CreateCommitRecord(WriteOp& record, RecordWriteListener* /*listener*/) {
  // No write outlives this call, so there is nothing to tell the listener.
  Status created = PutIfAbsent(std::move(record.key), std::move(record.value));
  return created.code() == StatusCode::kAlreadyExists ? Status::Ok() : created;
}

void StorageEngine::CommitUnits(std::span<CommitUnit> units, std::span<Status> results,
                                CommitStageProfile* profile) {
  // Stage attribution: per unit, the data write's wall time minus the
  // ParallelFor straggler wait is data_flush, that wait plus the hook is
  // the §3.3 barrier, and the record create is record_write; units add up.
  // The engines' concurrent batch dispatch runs ParallelFor on THIS thread,
  // so the thread-local latch accumulator attributes correctly; consuming
  // it up front discards any stale remainder from unrelated calls. Each
  // stage opens at the clock reading that closed the one before it (see
  // CommitStageProfile), so each boundary is read once.
  const bool timed = profile != nullptr && contention::StageTimingEnabled();
  StageClock::time_point mark{};
  if (timed) {
    IoExecutor::ConsumeLatchWaitNanos();
    mark = profile->start != StageClock::time_point{} ? profile->start : StageClock::now();
  }
  for (size_t u = 0; u < units.size(); ++u) {
    CommitUnit& unit = units[u];
    Status flushed = BatchPut(unit.data_ops);
    if (timed) {
      const auto flush_end = StageClock::now();
      const double straggler_s = static_cast<double>(IoExecutor::ConsumeLatchWaitNanos()) * 1e-9;
      profile->data_flush_s +=
          std::chrono::duration<double>(flush_end - mark).count() - straggler_s;
      profile->barrier_s += straggler_s;
      mark = flush_end;
    }
    if (flushed.ok() && unit.after_data_write) {
      flushed = unit.after_data_write();
      if (timed) {
        const auto hook_end = StageClock::now();
        profile->barrier_s += std::chrono::duration<double>(hook_end - mark).count();
        mark = hook_end;
      }
    }
    if (!flushed.ok()) {
      results[u] = std::move(flushed);
      continue;
    }
    results[u] = CreateCommitRecord(unit.commit_record, unit.record_listener);
    if (timed) {
      const auto record_end = StageClock::now();
      profile->record_write_s += std::chrono::duration<double>(record_end - mark).count();
      mark = record_end;
    }
  }
  if (timed) {
    profile->end = mark;
  }
}

}  // namespace aft
