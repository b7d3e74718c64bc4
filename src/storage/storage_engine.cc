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

Status StorageEngine::Commit(CommitUnit& unit, CommitStageProfile* profile) {
  // Stage attribution: the data write's wall time minus the ParallelFor
  // straggler wait is data_flush, that wait plus the hook is the §3.3
  // barrier, and the record create is record_write. The engines'
  // concurrent batch dispatch runs ParallelFor on THIS thread, so the
  // thread-local latch accumulator attributes correctly; consuming it up
  // front discards any stale remainder from unrelated calls. Each stage
  // opens at the clock reading that closed the one before it (see
  // CommitStageProfile), so each boundary is read once.
  const bool timed = profile != nullptr && contention::StageTimingEnabled();
  StageClock::time_point mark{};
  if (timed) {
    IoExecutor::ConsumeLatchWaitNanos();
    mark = profile->start != StageClock::time_point{} ? profile->start : StageClock::now();
  }
  auto close_stage = [&](double* stage_s) {
    const auto now = StageClock::now();
    *stage_s += std::chrono::duration<double>(now - mark).count();
    mark = now;
  };
  Status committed = BatchPut(unit.data_ops);
  if (timed) {
    close_stage(&profile->data_flush_s);
    const double straggler_s = static_cast<double>(IoExecutor::ConsumeLatchWaitNanos()) * 1e-9;
    profile->data_flush_s -= straggler_s;
    profile->barrier_s += straggler_s;
  }
  if (committed.ok() && unit.after_data_write) {
    committed = unit.after_data_write();
    if (timed) {
      close_stage(&profile->barrier_s);
    }
  }
  if (committed.ok()) {
    committed = CreateCommitRecord(unit.commit_record, unit.record_listener);
    if (timed) {
      close_stage(&profile->record_write_s);
    }
  }
  if (timed) {
    profile->end = mark;
  }
  return committed;
}

}  // namespace aft
