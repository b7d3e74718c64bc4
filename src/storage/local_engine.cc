#include "src/storage/local_engine.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "src/common/contention.h"
#include "src/common/histogram.h"
#include "src/common/io_executor.h"
#include "src/common/logging.h"
#include "src/common/serde.h"

namespace aft {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

// Wall-time observation into an aft_storage_op_latency_ms child; a no-op
// when the engine has no registered instrument (tests without metrics).
class LatencyTimer {
 public:
  explicit LatencyTimer(obs::Histogram* hist) : hist_(hist) {
    if (hist_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~LatencyTimer() {
    if (hist_ != nullptr) {
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      hist_->Observe(std::chrono::duration<double, std::milli>(elapsed).count());
    }
  }

 private:
  obs::Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

// MultiGet fans out on the executor only past this size; small reads are
// cheaper issued inline than dispatched.
constexpr size_t kMultiGetParallelThreshold = 8;

// Compaction writes its output through this much buffered memory at a time.
constexpr size_t kCompactionWriteBuffer = 1u << 20;

Status WriteAll(int fd, const char* data, size_t len) {
  size_t done = 0;
  while (done < len) {
    const ssize_t n = ::write(fd, data + done, len - done);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("write compaction output");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

LocalEngine::FileHandle::~FileHandle() {
  if (fd >= 0) {
    ::close(fd);
  }
}

LocalEngine::LocalEngine(std::string data_dir, LocalEngineOptions options)
    : data_dir_(std::move(data_dir)), options_(options) {}

Result<std::unique_ptr<LocalEngine>> LocalEngine::Open(std::string data_dir,
                                                       LocalEngineOptions options) {
  if (data_dir.empty()) {
    return Status::InvalidArgument("local engine needs a data directory");
  }
  if (::mkdir(data_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir " + data_dir);
  }
  std::unique_ptr<LocalEngine> engine(new LocalEngine(std::move(data_dir), options));
  LocalEngine* raw = engine.get();

  // Replay the surviving log prefix into the index (recovery truncated any
  // torn tail and dropped anything after a corrupt record before we see it).
  AFT_ASSIGN_OR_RETURN(WalReplayStats replay,
                       ReplayWal(raw->data_dir_, [raw](const WalRecordEvent& event) {
                         raw->ApplyReplayEvent(event);
                       }));
  {
    WriterMutexLock lock(raw->index_mu_);
    // Pick up zero-record files too (an empty rotation output replays no
    // records but still exists on disk), then open every read fd.
    AFT_ASSIGN_OR_RETURN(std::vector<WalFileInfo> on_disk, ListWalFiles(raw->data_dir_));
    for (const WalFileInfo& info : on_disk) {
      raw->files_.try_emplace(info.file_key);
    }
    for (const auto& [file_key, state] : raw->files_) {
      AFT_RETURN_IF_ERROR(raw->EnsureFileLocked(file_key));
    }
  }
  if (replay.truncated) {
    AFT_LOG(Warn) << "local engine " << raw->data_dir_ << ": recovery truncated "
                  << replay.truncated_bytes << " torn bytes and dropped "
                  << replay.dropped_files << " later file(s)";
  }
  WalOptions wal_options;
  wal_options.max_log_bytes = options.max_log_bytes;
  wal_options.flush_interval = options.flush_interval;
  wal_options.fdatasync = options.fdatasync;
  AFT_ASSIGN_OR_RETURN(engine->wal_, Wal::Open(raw->data_dir_, replay.max_seq + 1, wal_options));

  auto& reg = obs::MetricsRegistry::Global();
  const obs::MetricLabels labels = {{"engine", "local"}};
  auto latency = [&](const char* op) {
    obs::MetricLabels op_labels = labels;
    op_labels.emplace_back("op", op);
    return reg.GetHistogram("aft_storage_op_latency_ms",
                            "Charged storage latency per operation (ms)",
                            DefaultLatencyBoundariesMs(), std::move(op_labels));
  };
  engine->op_latency_get_ = latency("get");
  engine->op_latency_put_ = latency("put");
  engine->op_latency_delete_ = latency("delete");
  engine->op_latency_list_ = latency("list");
  engine->op_latency_batch_ = latency("batch");
  auto wrap_counter = [&](const char* metric, const char* help,
                          const std::atomic<uint64_t>& cell) {
    engine->metric_callbacks_.push_back(reg.RegisterCallback(
        metric, help, obs::CallbackType::kCounter, labels,
        [&cell] { return static_cast<double>(cell.load(std::memory_order_relaxed)); }));
  };
  wrap_counter("aft_storage_gets_total", "Storage GET operations", raw->counters_.gets);
  wrap_counter("aft_storage_puts_total", "Storage PUT operations", raw->counters_.puts);
  wrap_counter("aft_storage_batch_puts_total", "Storage batched-write API calls",
               raw->counters_.batch_puts);
  wrap_counter("aft_storage_deletes_total", "Storage DELETE operations", raw->counters_.deletes);
  wrap_counter("aft_storage_lists_total", "Storage LIST operations", raw->counters_.lists);
  wrap_counter("aft_storage_bytes_read_total", "Payload bytes read from storage",
               raw->counters_.bytes_read);
  wrap_counter("aft_storage_bytes_written_total", "Payload bytes written to storage",
               raw->counters_.bytes_written);
  wrap_counter("aft_storage_api_calls_total", "Storage API requests issued",
               raw->counters_.api_calls);
  auto wrap_wal = [&](const char* metric, const char* help, auto getter) {
    engine->metric_callbacks_.push_back(
        reg.RegisterCallback(metric, help, obs::CallbackType::kCounter, labels,
                             [raw, getter] { return getter(raw); }));
  };
  wrap_wal("aft_wal_fsyncs_total", "WAL fdatasync calls (group commits)",
           [](LocalEngine* e) { return static_cast<double>(e->wal_->stats().fsyncs); });
  wrap_wal("aft_wal_records_total", "WAL records appended",
           [](LocalEngine* e) { return static_cast<double>(e->wal_->stats().records); });
  wrap_wal("aft_wal_bytes_appended_total", "WAL bytes appended",
           [](LocalEngine* e) { return static_cast<double>(e->wal_->stats().bytes_appended); });
  wrap_wal("aft_wal_rotations_total", "WAL file rotations",
           [](LocalEngine* e) { return static_cast<double>(e->wal_->stats().rotations); });
  wrap_wal("aft_wal_compactions_total", "WAL compaction passes", [](LocalEngine* e) {
    return static_cast<double>(e->compactions_.load(std::memory_order_relaxed));
  });
  wrap_wal("aft_wal_compaction_reclaimed_bytes_total", "Bytes reclaimed by compaction",
           [](LocalEngine* e) {
             return static_cast<double>(
                 e->compaction_reclaimed_bytes_.load(std::memory_order_relaxed));
           });
  engine->metric_callbacks_.push_back(reg.RegisterCallback(
      "aft_wal_dead_bytes", "Dead (superseded) bytes across WAL files",
      obs::CallbackType::kGauge, labels,
      [raw] { return static_cast<double>(raw->file_stats().dead_bytes); }));
  engine->metric_callbacks_.push_back(
      reg.RegisterCallback("aft_wal_files", "Live WAL file count", obs::CallbackType::kGauge,
                           labels, [raw] { return static_cast<double>(raw->file_stats().files); }));

  if (options.start_compaction_thread) {
    engine->compactor_ = std::thread(&LocalEngine::CompactorMain, engine.get());
  }
  return engine;
}

LocalEngine::~LocalEngine() {
  {
    MutexLock lock(compact_mu_);
    stop_compactor_ = true;
    compact_cv_.NotifyAll();
  }
  if (compactor_.joinable()) {
    compactor_.join();
  }
  // Unregister exposition callbacks before the state they read goes away.
  metric_callbacks_.clear();
  wal_.reset();
}

Status LocalEngine::EnsureFileLocked(uint64_t file_key) {
  auto [it, inserted] = files_.try_emplace(file_key);
  FileState& state = it->second;
  if (state.handle != nullptr) {
    return Status::Ok();
  }
  const std::string path = wal::WalFilePath(data_dir_, file_key);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (inserted) {
      // Don't strand a handle-less FileState: compaction treats every
      // files_ entry as a readable input.
      files_.erase(it);
    }
    return ErrnoStatus("open " + path + " for reads");
  }
  state.handle = std::make_shared<FileHandle>();
  state.handle->fd = fd;
  return Status::Ok();
}

void LocalEngine::ApplyReplayEvent(const WalRecordEvent& event) {
  WriterMutexLock lock(index_mu_);
  files_.try_emplace(event.file_key);
  ApplyIndexOp(event.op, event.key,
               Locator{event.file_key, event.value_offset,
                       static_cast<uint32_t>(event.value.size())},
               event.record_bytes);
}

void LocalEngine::ApplyIndexOp(wal::RecordOp op, std::string_view key, const Locator& loc,
                               uint64_t record_bytes) {
  files_[loc.file_key].total_bytes += record_bytes;
  if (op == wal::RecordOp::kPut) {
    // find-then-emplace (not try_emplace) so the overwrite path never
    // constructs a key, and the insert path builds it straight in the pool.
    auto it = index_.find(key);
    if (it != index_.end()) {
      const Locator& old = it->second;
      files_[old.file_key].dead_bytes += wal::PutRecordBytes(key.size(), old.value_len);
      it->second = loc;
      return;
    }
    index_.emplace(IndexKey(key.data(), key.size(), PoolAllocator<char>(index_pool_)), loc);
    return;
  }
  // A delete record supersedes the old put AND is itself immediately dead
  // weight (it only matters until the put's file is compacted away).
  files_[loc.file_key].dead_bytes += record_bytes;
  auto it = index_.find(key);
  if (it != index_.end()) {
    const Locator& old = it->second;
    files_[old.file_key].dead_bytes += wal::PutRecordBytes(key.size(), old.value_len);
    index_.erase(it);
  }
}

Status LocalEngine::ApplyWrites(std::span<const Wal::AppendOp> ops) {
  // Reused per-thread scratch keeps the steady-state commit path free of
  // allocations (the alloc-count bench asserts this).
  static thread_local std::vector<Wal::AppendOp> accepted;
  accepted.clear();
  Status first_error = Status::Ok();
  if (has_injector_.load(std::memory_order_acquire)) {
    const auto injector = InjectorSnapshot();
    for (const Wal::AppendOp& op : ops) {
      const Status verdict = injector ? (*injector)(op.key) : Status::Ok();
      if (verdict.ok()) {
        accepted.push_back(op);
      } else if (first_error.ok()) {
        first_error = verdict;
      }
    }
  } else {
    accepted.assign(ops.begin(), ops.end());
  }
  if (accepted.empty()) {
    return first_error;
  }
  AFT_RETURN_IF_ERROR(AppendIndexSync(std::span<const Wal::AppendOp>(accepted)));
  return first_error;
}

Status LocalEngine::AppendIndexSync(std::span<const Wal::AppendOp> ops, double* append_s,
                                    double* sync_s) {
  static thread_local std::vector<Wal::AppendedLoc> locs;
  locs.resize(ops.size());
  const bool timed = append_s != nullptr;
  const auto append_start =
      timed ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
  uint64_t batch_lsn = 0;
  {
    // Shared hold spans append -> index publication so compaction's
    // exclusive snapshot can never observe this batch's records appended
    // but not yet indexed (it would unlink their file; see inflight_mu_).
    // Released before Sync: durability needs no coordination with
    // compaction, and fsync waits dominate write latency.
    ReaderMutexLock gate(inflight_mu_);
    auto lsn = wal_->AppendBatch(ops, locs.data());
    if (!lsn.ok()) {
      return lsn.status();
    }
    batch_lsn = *lsn;
    WriterMutexLock lock(index_mu_);
    for (size_t i = 0; i < ops.size(); ++i) {
      AFT_RETURN_IF_ERROR(EnsureFileLocked(locs[i].file_key));
      const Locator loc{locs[i].file_key, locs[i].value_offset, locs[i].value_len};
      ApplyIndexOp(ops[i].op, ops[i].key, loc, locs[i].record_bytes);
    }
  }
  if (timed) {
    const auto sync_start = std::chrono::steady_clock::now();
    *append_s = std::chrono::duration<double>(sync_start - append_start).count();
    const Status synced = wal_->Sync(batch_lsn);
    if (sync_s != nullptr) {
      *sync_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - sync_start)
                    .count();
    }
    return synced;
  }
  return wal_->Sync(batch_lsn);
}

Result<std::string> LocalEngine::PreadValue(const FileHandle& handle, const Locator& loc,
                                            uint64_t offset, uint64_t length) {
  std::string value;
  value.resize(length);
  size_t done = 0;
  while (done < length) {
    const ssize_t n = ::pread(handle.fd, value.data() + done, length - done,
                              static_cast<off_t>(loc.value_offset + offset + done));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return ErrnoStatus("pread value");
    }
    if (n == 0) {
      return Status::Internal("short pread: wal file truncated under a live index entry");
    }
    done += static_cast<size_t>(n);
  }
  counters_.bytes_read.fetch_add(length, std::memory_order_relaxed);
  return value;
}

Status LocalEngine::ResolveLocked(const std::string& key, Locator* loc,
                                  std::shared_ptr<FileHandle>* handle) {
  auto it = index_.find(key);
  if (it == index_.end()) {
    return Status::NotFound(key);
  }
  *loc = it->second;
  auto fit = files_.find(loc->file_key);
  if (fit == files_.end() || fit->second.handle == nullptr) {
    return Status::Internal("index references unknown wal file " +
                            wal::WalFileName(loc->file_key));
  }
  *handle = fit->second.handle;
  return Status::Ok();
}

Result<std::string> LocalEngine::Get(const std::string& key) {
  counters_.gets.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  LatencyTimer timer(op_latency_get_);
  Locator loc;
  std::shared_ptr<FileHandle> handle;
  {
    // Locator and handle resolve under ONE lock acquisition: compaction
    // repoints the index and retires input files atomically under the writer
    // lock, so splitting the lookup would let a concurrent pass invalidate
    // the locator between the two steps.
    ReaderMutexLock lock(index_mu_);
    AFT_RETURN_IF_ERROR(ResolveLocked(key, &loc, &handle));
  }
  return PreadValue(*handle, loc, 0, loc.value_len);
}

Result<std::string> LocalEngine::GetRange(const std::string& key, uint64_t offset,
                                          uint64_t length) {
  counters_.gets.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  LatencyTimer timer(op_latency_get_);
  Locator loc;
  std::shared_ptr<FileHandle> handle;
  {
    ReaderMutexLock lock(index_mu_);
    AFT_RETURN_IF_ERROR(ResolveLocked(key, &loc, &handle));
  }
  if (offset > loc.value_len) {
    return Status::InvalidArgument("range offset beyond object size");
  }
  return PreadValue(*handle, loc, offset, std::min<uint64_t>(length, loc.value_len - offset));
}

std::vector<Result<std::string>> LocalEngine::MultiGet(std::span<const std::string> keys) {
  std::vector<Result<std::string>> results;
  if (keys.size() < kMultiGetParallelThreshold) {
    results.reserve(keys.size());
    for (const std::string& key : keys) {
      results.push_back(Get(key));
    }
    return results;
  }
  results.resize(keys.size(), Status::NotFound(""));
  IoExecutor::Shared().ParallelFor(keys.size(), [&](size_t i) {
    results[i] = Get(keys[i]);
    return Status::Ok();  // per-key misses live in results, not the latch
  });
  return results;
}

Status LocalEngine::Put(std::string key, std::string value) {
  counters_.puts.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_written.fetch_add(value.size(), std::memory_order_relaxed);
  LatencyTimer timer(op_latency_put_);
  const Wal::AppendOp op{wal::RecordOp::kPut, key, value};
  return ApplyWrites(std::span<const Wal::AppendOp>(&op, 1));
}

Status LocalEngine::PutIfAbsent(std::string key, std::string value) {
  MutexLock create(create_mu_);
  bool exists = false;
  {
    ReaderMutexLock lock(index_mu_);
    exists = index_.find(std::string_view(key)) != index_.end();
  }
  if (exists) {
    counters_.puts.fetch_add(1, std::memory_order_relaxed);
    counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
    return Status::AlreadyExists("conditional create found the object");
  }
  return Put(std::move(key), std::move(value));
}

Status LocalEngine::BatchPut(std::span<WriteOp> ops) {
  if (ops.empty()) {
    return Status::Ok();
  }
  counters_.batch_puts.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  counters_.puts.fetch_add(ops.size(), std::memory_order_relaxed);
  LatencyTimer timer(op_latency_batch_);
  static thread_local std::vector<Wal::AppendOp> wal_ops;
  wal_ops.clear();
  uint64_t bytes = 0;
  for (const WriteOp& op : ops) {
    wal_ops.push_back(Wal::AppendOp{wal::RecordOp::kPut, op.key, op.value});
    bytes += op.value.size();
  }
  counters_.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  return ApplyWrites(std::span<const Wal::AppendOp>(wal_ops));
}

Status LocalEngine::Commit(CommitUnit& unit, CommitStageProfile* profile) {
  if (unit.after_data_write) {
    return StorageEngine::Commit(unit, profile);
  }
  counters_.batch_puts.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  LatencyTimer timer(op_latency_batch_);
  // One ordered op vector: [data ops..., record]. The record trails its
  // data in the log, so prefix-truncating replay can never keep a record
  // whose data was torn away — the §3.3 barrier, paid as the one fsync
  // below.
  static thread_local std::vector<Wal::AppendOp> fused;
  fused.clear();
  fused.reserve(unit.data_ops.size() + 1);
  const auto injector =
      has_injector_.load(std::memory_order_acquire) ? InjectorSnapshot() : nullptr;
  Status rejected;
  // aftlint: hot
  for (const WriteOp& op : unit.data_ops) {
    Status verdict = injector ? (*injector)(op.key) : Status::Ok();
    if (!verdict.ok()) {
      // In-flight writes cannot be recalled: the ops already accepted still
      // append, invisible, because the record that would reference them is
      // withheld below.
      if (rejected.ok()) {
        rejected = std::move(verdict);
      }
      continue;
    }
    fused.push_back(Wal::AppendOp{wal::RecordOp::kPut, op.key, op.value});
  }
  if (rejected.ok() && injector) {
    rejected = (*injector)(unit.commit_record.key);
  }
  if (rejected.ok()) {
    fused.push_back(
        Wal::AppendOp{wal::RecordOp::kPut, unit.commit_record.key, unit.commit_record.value});
  }
  uint64_t bytes = 0;
  for (const Wal::AppendOp& op : fused) {
    bytes += op.value.size();
  }
  counters_.puts.fetch_add(fused.size(), std::memory_order_relaxed);
  counters_.bytes_written.fetch_add(bytes, std::memory_order_relaxed);
  if (fused.empty()) {
    return rejected;
  }
  double* append_out = nullptr;
  double* sync_out = nullptr;
  if (profile != nullptr && contention::StageTimingEnabled()) {
    // Fused-path stage mapping: append + index publish = data_flush, the
    // fsync = record_write, barrier = 0 (see header).
    append_out = &profile->data_flush_s;
    sync_out = &profile->record_write_s;
  }
  const Status applied =
      AppendIndexSync(std::span<const Wal::AppendOp>(fused), append_out, sync_out);
  return rejected.ok() ? applied : rejected;
}

Status LocalEngine::Delete(const std::string& key) {
  counters_.deletes.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  LatencyTimer timer(op_latency_delete_);
  const Wal::AppendOp op{wal::RecordOp::kDelete, key, {}};
  return ApplyWrites(std::span<const Wal::AppendOp>(&op, 1));
}

Status LocalEngine::BatchDelete(std::span<const std::string> keys) {
  if (keys.empty()) {
    return Status::Ok();
  }
  counters_.deletes.fetch_add(keys.size(), std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  LatencyTimer timer(op_latency_delete_);
  static thread_local std::vector<Wal::AppendOp> wal_ops;
  wal_ops.clear();
  for (const std::string& key : keys) {
    wal_ops.push_back(Wal::AppendOp{wal::RecordOp::kDelete, key, {}});
  }
  return ApplyWrites(std::span<const Wal::AppendOp>(wal_ops));
}

Result<std::vector<std::string>> LocalEngine::List(const std::string& prefix) {
  counters_.lists.fetch_add(1, std::memory_order_relaxed);
  counters_.api_calls.fetch_add(1, std::memory_order_relaxed);
  LatencyTimer timer(op_latency_list_);
  std::vector<std::string> keys;
  ReaderMutexLock lock(index_mu_);
  for (auto it = index_.lower_bound(prefix); it != index_.end(); ++it) {
    if (!std::string_view(it->first).starts_with(prefix)) {
      break;
    }
    keys.emplace_back(it->first.data(), it->first.size());
  }
  return keys;
}

void LocalEngine::SetWriteFailureInjector(std::function<Status(std::string_view)> fn) {
  MutexLock lock(injector_mu_);
  injector_ = fn ? std::make_shared<const WriteFailureInjector>(std::move(fn)) : nullptr;
  has_injector_.store(injector_ != nullptr, std::memory_order_release);
}

std::shared_ptr<const LocalEngine::WriteFailureInjector> LocalEngine::InjectorSnapshot() {
  MutexLock lock(injector_mu_);
  return injector_;
}

LocalEngine::FileStats LocalEngine::file_stats() const {
  ReaderMutexLock lock(index_mu_);
  FileStats stats;
  stats.files = files_.size();
  for (const auto& [file_key, state] : files_) {
    stats.total_bytes += state.total_bytes;
    stats.dead_bytes += state.dead_bytes;
  }
  return stats;
}

Status LocalEngine::CompactNow() {
  AFT_RETURN_IF_ERROR(wal_->Rotate().status());
  return MaybeCompact(/*force=*/true);
}

void LocalEngine::CompactorMain() {
  MutexLock lock(compact_mu_);
  while (!stop_compactor_) {
    compact_cv_.WaitFor(lock, options_.compaction_poll_interval);
    if (stop_compactor_) {
      return;
    }
    lock.Unlock();
    const Status status = MaybeCompact(/*force=*/false);
    if (!status.ok()) {
      AFT_LOG(Warn) << "local engine compaction failed: " << status.message();
    }
    lock.Lock();
  }
}

Status LocalEngine::MaybeCompact(bool force) {
  {
    // Single-flight: CompactNow and the background pass must not interleave.
    MutexLock lock(compact_mu_);
    while (compaction_running_) {
      compact_cv_.Wait(lock);
    }
    compaction_running_ = true;
  }
  const Status status = [&]() -> Status {
    // Snapshot the frozen set and (under the shared lock) the live entries
    // pointing into it. Values are pread AFTER the lock drops — frozen
    // records are immutable, and the repoint step below tolerates entries
    // superseded meanwhile.
    struct LiveEntry {
      std::string key;
      Locator old_loc;
      std::shared_ptr<FileHandle> handle;  // pins the input file for the pread
      uint64_t out_offset = 0;             // value offset in the compacted file
    };
    std::vector<LiveEntry> live;
    std::vector<uint64_t> inputs;
    uint64_t input_bytes = 0;
    uint64_t input_dead = 0;
    {
      // Exclusive gate: wait out every write that has appended but not yet
      // indexed, and hold off new ones while inputs are chosen. Combined
      // with the sequence guard below this makes the selection exact — no
      // frozen input can be hiding records the index has not published.
      WriterMutexLock gate(inflight_mu_);
      ReaderMutexLock lock(index_mu_);
      // The active key MUST be read while index_mu_ is held: files_ cannot
      // gain entries while we hold the shared lock, and any file already in
      // files_ was active strictly before the key we read here. A pre-lock
      // snapshot races with rotation — a write could index the new active
      // file and this loop would select the file the WAL is appending to.
      // Guard on the sequence number (not just key equality) so every file
      // at or past the active slot is excluded outright.
      const uint32_t active_seq = wal::FileSeq(wal_->active_file_key());
      for (const auto& [file_key, state] : files_) {
        if (wal::FileSeq(file_key) >= active_seq) {
          continue;
        }
        inputs.push_back(file_key);
        input_bytes += state.total_bytes;
        input_dead += state.dead_bytes;
      }
      if (inputs.empty()) {
        return Status::Ok();
      }
      if (!force && (input_dead < options_.compact_min_dead_bytes ||
                     input_bytes == 0 ||
                     static_cast<double>(input_dead) / static_cast<double>(input_bytes) <
                         options_.compact_min_dead_ratio)) {
        return Status::Ok();
      }
      for (const auto& [key, loc] : index_) {
        if (std::binary_search(inputs.begin(), inputs.end(), loc.file_key)) {
          live.push_back(LiveEntry{std::string(std::string_view(key)), loc,
                                   files_.find(loc.file_key)->second.handle, 0});
        }
      }
    }

    // Output file key: same seq slot as the newest input, next generation —
    // replays after everything it absorbed, before everything newer.
    const uint64_t newest = inputs.back();
    if (wal::FileGen(newest) >= wal::kMaxCompactionGen) {
      return Status::ResourceExhausted("compaction generation limit reached for " +
                                       wal::WalFileName(newest));
    }
    const uint64_t out_key = wal::MakeFileKey(wal::FileSeq(newest), wal::FileGen(newest) + 1);
    const std::string out_path = wal::WalFilePath(data_dir_, out_key);
    const std::string tmp_path = out_path + ".tmp";

    const int out_fd = ::open(tmp_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY | O_CLOEXEC, 0644);
    if (out_fd < 0) {
      return ErrnoStatus("open " + tmp_path);
    }
    auto fail = [&](Status error) {
      ::close(out_fd);
      ::unlink(tmp_path.c_str());
      return error;
    };

    BinaryWriter buffer;
    uint64_t out_offset = 0;
    uint64_t out_bytes = 0;
    for (LiveEntry& entry : live) {
      auto value = PreadValue(*entry.handle, entry.old_loc, 0, entry.old_loc.value_len);
      if (!value.ok()) {
        return fail(value.status());
      }
      entry.out_offset = out_offset + wal::ValueOffsetInRecord(entry.key.size());
      wal::AppendRecordTo(buffer, wal::RecordOp::kPut, entry.key, *value);
      out_offset += wal::PutRecordBytes(entry.key.size(), value->size());
      if (buffer.data().size() >= kCompactionWriteBuffer) {
        const Status written = WriteAll(out_fd, buffer.data().data(), buffer.data().size());
        if (!written.ok()) {
          return fail(written);
        }
        out_bytes += buffer.data().size();
        buffer.Clear();
      }
    }
    if (!buffer.data().empty()) {
      const Status written = WriteAll(out_fd, buffer.data().data(), buffer.data().size());
      if (!written.ok()) {
        return fail(written);
      }
      out_bytes += buffer.data().size();
    }
    if (options_.fdatasync) {
      int rc;
      do {
        rc = ::fdatasync(out_fd);
      } while (rc != 0 && errno == EINTR);
      if (rc != 0) {
        return fail(ErrnoStatus("fdatasync " + tmp_path));
      }
    }
    ::close(out_fd);

    // Commit point: the rename (made durable by the directory fsync). A
    // crash before this leaves only a .tmp that recovery deletes; after it,
    // replay sees inputs + output back to back, which is state-equivalent.
    if (::rename(tmp_path.c_str(), out_path.c_str()) != 0) {
      ::unlink(tmp_path.c_str());
      return ErrnoStatus("rename " + tmp_path);
    }
    if (options_.fdatasync) {
      AFT_RETURN_IF_ERROR(wal::FsyncDir(data_dir_));
    }

    const int read_fd = ::open(out_path.c_str(), O_RDONLY | O_CLOEXEC);
    if (read_fd < 0) {
      return ErrnoStatus("open " + out_path + " for reads");
    }

    // Repoint surviving index entries; entries superseded or deleted during
    // the pass keep their newer locators (their copy in the output file is
    // dead weight from birth).
    std::vector<std::shared_ptr<FileHandle>> retired;
    {
      WriterMutexLock lock(index_mu_);
      FileState& out_state = files_[out_key];
      out_state.handle = std::make_shared<FileHandle>();
      out_state.handle->fd = read_fd;
      out_state.total_bytes = out_bytes;
      for (const LiveEntry& entry : live) {
        const uint64_t record_bytes =
            wal::PutRecordBytes(entry.key.size(), entry.old_loc.value_len);
        auto it = index_.find(entry.key);
        if (it != index_.end() && it->second == entry.old_loc) {
          it->second = Locator{out_key, entry.out_offset, entry.old_loc.value_len};
        } else {
          out_state.dead_bytes += record_bytes;
        }
      }
      for (uint64_t file_key : inputs) {
        auto it = files_.find(file_key);
        if (it != files_.end()) {
          retired.push_back(std::move(it->second.handle));
          files_.erase(it);
        }
      }
    }
    // In-flight preads still hold refs; unlinked inodes stay readable until
    // the last one drops.
    retired.clear();
    for (uint64_t file_key : inputs) {
      const std::string path = wal::WalFilePath(data_dir_, file_key);
      if (::unlink(path.c_str()) != 0) {
        return ErrnoStatus("unlink " + path);
      }
    }
    if (options_.fdatasync) {
      AFT_RETURN_IF_ERROR(wal::FsyncDir(data_dir_));
    }

    compactions_.fetch_add(1, std::memory_order_relaxed);
    if (input_bytes > out_bytes) {
      compaction_reclaimed_bytes_.fetch_add(input_bytes - out_bytes, std::memory_order_relaxed);
    }
    AFT_LOG(Info) << "local engine compacted " << inputs.size() << " file(s), " << input_bytes
                  << " -> " << out_bytes << " bytes";
    return Status::Ok();
  }();
  {
    MutexLock lock(compact_mu_);
    compaction_running_ = false;
    compact_cv_.NotifyAll();
  }
  return status;
}

}  // namespace aft
