#include "src/storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/common/crc32.h"
#include "src/common/logging.h"
#include "src/common/small_vector.h"

namespace aft {
namespace wal {

namespace {

// Safely below IOV_MAX on every platform we run on; writev windows this size.
constexpr size_t kIovWindow = 512;

bool ParseDigits(std::string_view s, uint32_t* out) {
  if (s.empty() || s.size() > 9) {
    return false;
  }
  uint32_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<uint32_t>(c - '0');
  }
  *out = value;
  return true;
}

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

std::string WalFileName(uint64_t file_key) {
  char buf[48];
  const uint32_t seq = FileSeq(file_key);
  const uint32_t gen = FileGen(file_key);
  if (gen == 0) {
    std::snprintf(buf, sizeof(buf), "wal-%06u.log", seq);
  } else {
    std::snprintf(buf, sizeof(buf), "wal-%06u.c%u.log", seq, gen);
  }
  return buf;
}

std::string WalFilePath(const std::string& dir, uint64_t file_key) {
  return dir + "/" + WalFileName(file_key);
}

bool ParseWalFileName(std::string_view name, uint64_t* file_key) {
  if (!name.starts_with("wal-") || !name.ends_with(".log")) {
    return false;
  }
  std::string_view body = name.substr(4, name.size() - 8);
  uint32_t gen = 0;
  const size_t dot = body.find('.');
  if (dot != std::string_view::npos) {
    std::string_view gen_part = body.substr(dot + 1);
    if (gen_part.size() < 2 || gen_part[0] != 'c' || !ParseDigits(gen_part.substr(1), &gen) ||
        gen == 0 || gen > kMaxCompactionGen) {
      return false;
    }
    body = body.substr(0, dot);
  }
  uint32_t seq = 0;
  if (!ParseDigits(body, &seq)) {
    return false;
  }
  *file_key = MakeFileKey(seq, gen);
  return true;
}

bool DecodeRecordPayload(std::string_view payload, RecordView* out) {
  BinaryReader reader(payload);
  uint8_t op = 0;
  if (!reader.GetU8(&op)) {
    return false;
  }
  if (op != static_cast<uint8_t>(RecordOp::kPut) && op != static_cast<uint8_t>(RecordOp::kDelete)) {
    return false;
  }
  std::string_view key;
  std::string_view value;
  if (!reader.GetStringView(&key)) {
    return false;
  }
  if (op == static_cast<uint8_t>(RecordOp::kPut) && !reader.GetStringView(&value)) {
    return false;
  }
  if (!reader.AtEnd()) {
    return false;
  }
  out->op = static_cast<RecordOp>(op);
  out->key = key;
  out->value = value;
  return true;
}

namespace {

// CRC of a record payload computed from its source fields (never from the
// encoded bytes — the hot path does not have them contiguously).
uint32_t RecordPayloadCrc(RecordOp op, std::string_view key, std::string_view value) {
  uint32_t crc = Crc32Begin();
  const uint8_t opb = static_cast<uint8_t>(op);
  crc = Crc32Feed(crc, &opb, 1);
  const uint32_t klen = static_cast<uint32_t>(key.size());
  crc = Crc32Feed(crc, &klen, 4);
  crc = Crc32Feed(crc, key.data(), key.size());
  if (op == RecordOp::kPut) {
    const uint32_t vlen = static_cast<uint32_t>(value.size());
    crc = Crc32Feed(crc, &vlen, 4);
    crc = Crc32Feed(crc, value.data(), value.size());
  }
  return Crc32End(crc);
}

// 64-bit on purpose: a key+value totaling more than 4 GiB must arrive at the
// kMaxRecordPayload check un-wrapped. Callers validate against the limit
// before narrowing to the 32-bit wire field.
uint64_t RecordPayloadLen(RecordOp op, std::string_view key, std::string_view value) {
  return 1ull + 4 + key.size() + (op == RecordOp::kPut ? 4 + value.size() : 0);
}

}  // namespace

void AppendRecordTo(BinaryWriter& out, RecordOp op, std::string_view key, std::string_view value) {
  // Callers only re-encode records that already passed AppendBatch's
  // kMaxRecordPayload check, so the narrowing below cannot wrap.
  out.PutU32(static_cast<uint32_t>(RecordPayloadLen(op, key, value)));
  out.PutU32(RecordPayloadCrc(op, key, value));
  out.PutU8(static_cast<uint8_t>(op));
  out.PutString(key);
  if (op == RecordOp::kPut) {
    out.PutString(value);
  }
}

Status FsyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Unavailable(ErrnoMessage("open wal dir for fsync"));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Unavailable(ErrnoMessage("fsync wal dir"));
  }
  return Status::Ok();
}

}  // namespace wal

namespace {

// Walks a SegmentBuffer's spans front to back, emitting byte ranges as
// iovecs. Ranges must be requested in buffer order (which AppendBatch's
// second pass does), so the whole batch is one O(spans) walk.
class SpanCursor {
 public:
  explicit SpanCursor(const SegmentBuffer& buf) : buf_(buf) {}

  void Emit(size_t len, std::vector<struct iovec>& iov) {
    while (len > 0) {
      const auto [data, span_len] = buf_.Span(span_);
      const size_t avail = span_len - span_off_;
      if (avail == 0) {
        ++span_;
        span_off_ = 0;
        continue;
      }
      const size_t n = len < avail ? len : avail;
      iov.push_back({const_cast<char*>(data) + span_off_, n});
      span_off_ += n;
      len -= n;
    }
  }

 private:
  const SegmentBuffer& buf_;
  size_t span_ = 0;
  size_t span_off_ = 0;
};

}  // namespace

Wal::Wal(std::string dir, WalOptions options)
    : dir_(std::move(dir)), options_(options), meta_(options.pool) {}

Result<std::unique_ptr<Wal>> Wal::Open(std::string dir, uint32_t first_seq, WalOptions options) {
  std::unique_ptr<Wal> wal(new Wal(std::move(dir), options));
  {
    MutexLock lock(wal->append_mu_);
    AFT_RETURN_IF_ERROR(wal->OpenActiveLocked(first_seq));
  }
  wal->flusher_ = std::thread(&Wal::FlusherMain, wal.get());
  return wal;
}

Wal::~Wal() {
  {
    MutexLock lock(flush_mu_);
    stop_ = true;
    flush_cv_.NotifyAll();
    durable_cv_.NotifyAll();
  }
  if (flusher_.joinable()) {
    flusher_.join();
  }
  MutexLock lock(append_mu_);
  if (active_fd_ >= 0) {
    if (options_.fdatasync) {
      ::fdatasync(active_fd_);
    }
    ::close(active_fd_);
    active_fd_ = -1;
  }
}

Status Wal::OpenActiveLocked(uint32_t seq) {
  const uint64_t key = wal::MakeFileKey(seq, 0);
  const std::string path = wal::WalFilePath(dir_, key);
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::Unavailable("open wal file " + path + ": " + std::strerror(errno));
  }
  // The file NAME must be durable too, or a crash could lose a whole log
  // file whose data blocks were flushed.
  if (options_.fdatasync) {
    const Status dir_status = wal::FsyncDir(dir_);
    if (!dir_status.ok()) {
      ::close(fd);
      ::unlink(path.c_str());
      return dir_status;
    }
  }
  active_fd_ = fd;
  active_key_ = key;
  active_size_ = 0;
  return Status::Ok();
}

Result<uint64_t> Wal::AppendBatch(std::span<const AppendOp> ops, AppendedLoc* locs) {
  if (ops.empty()) {
    MutexLock lock(flush_mu_);
    return appended_lsn_;
  }
  // Each record's CRC depends only on its op, key and value, so it is computed
  // before taking append_mu_: concurrent appenders never wait on each other's
  // checksums.
  SmallVector<uint32_t, 16> crcs;
  crcs.reserve(ops.size());
  for (const AppendOp& op : ops) {
    crcs.push_back(wal::RecordPayloadCrc(op.op, op.key, op.value));
  }
  MutexLock lock(append_mu_);
  if (poisoned_) {
    return Status::Unavailable("wal poisoned by an earlier write or fsync error");
  }
  if (active_fd_ < 0) {
    return Status::Internal("wal has no active file");
  }

  // Pass 1: encode per-record metadata (everything but the value bytes) into
  // the reused arena chain, compute headers and index locations.
  meta_.Clear();
  headers_.clear();
  headers_.resize(ops.size() * wal::kRecordHeaderSize);
  uint64_t cursor = active_size_;
  for (size_t i = 0; i < ops.size(); ++i) {
    const AppendOp& op = ops[i];
    const uint64_t payload_len = wal::RecordPayloadLen(op.op, op.key, op.value);
    if (payload_len > wal::kMaxRecordPayload) {
      return Status::InvalidArgument("wal record payload of " + std::to_string(payload_len) +
                                     " bytes exceeds the " +
                                     std::to_string(wal::kMaxRecordPayload) + "-byte limit");
    }
    const uint32_t payload_len32 = static_cast<uint32_t>(payload_len);
    char* header = headers_.data() + i * wal::kRecordHeaderSize;
    std::memcpy(header, &payload_len32, 4);
    std::memcpy(header + 4, &crcs[i], 4);

    const uint8_t opb = static_cast<uint8_t>(op.op);
    const uint32_t klen = static_cast<uint32_t>(op.key.size());
    meta_.Append(&opb, 1);
    meta_.Append(&klen, 4);
    meta_.Append(op.key.data(), op.key.size());
    if (op.op == wal::RecordOp::kPut) {
      const uint32_t vlen = static_cast<uint32_t>(op.value.size());
      meta_.Append(&vlen, 4);
    }

    locs[i].file_key = active_key_;
    locs[i].value_offset = cursor + wal::ValueOffsetInRecord(op.key.size());
    locs[i].value_len = static_cast<uint32_t>(op.value.size());
    locs[i].record_bytes = wal::kRecordHeaderSize + payload_len;
    cursor += locs[i].record_bytes;
  }

  // Pass 2: scatter-gather header + metadata + caller's value bytes. Spans
  // are stable now (no more Appends until the next batch).
  iov_.clear();
  SpanCursor meta_cursor(meta_);
  for (size_t i = 0; i < ops.size(); ++i) {
    const AppendOp& op = ops[i];
    iov_.push_back({headers_.data() + i * wal::kRecordHeaderSize, wal::kRecordHeaderSize});
    const size_t meta_len =
        1 + 4 + op.key.size() + (op.op == wal::RecordOp::kPut ? 4 : 0);
    meta_cursor.Emit(meta_len, iov_);
    if (op.op == wal::RecordOp::kPut && !op.value.empty()) {
      iov_.push_back({const_cast<char*>(op.value.data()), op.value.size()});
    }
  }

  size_t idx = 0;
  while (idx < iov_.size()) {
    const size_t count = std::min(iov_.size() - idx, wal::kIovWindow);
    const ssize_t n = ::writev(active_fd_, iov_.data() + idx, static_cast<int>(count));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      // A torn record may now sit at the tail; appending past it would make
      // replay silently drop everything after it. Refuse all further appends
      // and let recovery truncate.
      poisoned_ = true;
      return Status::Unavailable(wal::ErrnoMessage("wal writev"));
    }
    size_t advanced = static_cast<size_t>(n);
    while (advanced > 0) {
      struct iovec& v = iov_[idx];
      if (advanced >= v.iov_len) {
        advanced -= v.iov_len;
        ++idx;
      } else {
        v.iov_base = static_cast<char*>(v.iov_base) + advanced;
        v.iov_len -= advanced;
        advanced = 0;
      }
    }
  }

  const uint64_t appended_bytes = cursor - active_size_;
  active_size_ = cursor;
  const uint64_t lsn = lsn_base_ + active_size_;
  {
    MutexLock flock(flush_mu_);
    if (sync_failed_) {
      poisoned_ = true;
      return Status::Unavailable("wal poisoned by an earlier fsync error");
    }
    sync_fd_ = active_fd_;
    appended_lsn_ = lsn;
    stats_.batches += 1;
    stats_.records += ops.size();
    stats_.bytes_appended += appended_bytes;
    if (options_.fdatasync) {
      flush_cv_.NotifyOne();
    } else {
      durable_lsn_ = lsn;
      durable_cv_.NotifyAll();
    }
  }
  if (active_size_ >= options_.max_log_bytes) {
    uint64_t frozen = 0;
    AFT_RETURN_IF_ERROR(RotateLocked(&frozen));
  }
  return lsn;
}

Status Wal::Sync(uint64_t lsn) {
  MutexLock lock(flush_mu_);
  ++sync_waiters_;
  while (durable_lsn_ < lsn && !sync_failed_ && !stop_) {
    flush_cv_.NotifyOne();
    durable_cv_.Wait(lock);
  }
  --sync_waiters_;
  if (durable_lsn_ >= lsn) {
    stats_.sync_waiters_released += 1;
    return Status::Ok();
  }
  return Status::Unavailable("wal sync failed or wal shutting down");
}

Result<uint64_t> Wal::Rotate() {
  MutexLock lock(append_mu_);
  if (poisoned_) {
    return Status::Unavailable("wal poisoned by an earlier write or fsync error");
  }
  if (active_size_ == 0) {
    return static_cast<uint64_t>(0);  // nothing to freeze
  }
  uint64_t frozen = 0;
  AFT_RETURN_IF_ERROR(RotateLocked(&frozen));
  return frozen;
}

Status Wal::RotateLocked(uint64_t* frozen_key) {
  const int old_fd = active_fd_;
  const uint64_t old_key = active_key_;
  const uint64_t frozen_end_lsn = lsn_base_ + active_size_;

  if (options_.fdatasync) {
    int rc;
    do {
      rc = ::fdatasync(old_fd);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      poisoned_ = true;
      return Status::Unavailable(wal::ErrnoMessage("fdatasync on rotation"));
    }
  }
  {
    MutexLock flock(flush_mu_);
    // Never close an fd the flusher is mid-fdatasync on.
    while (fsync_inflight_fd_ == old_fd) {
      fsync_done_cv_.Wait(flock);
    }
    if (durable_lsn_ < frozen_end_lsn) {
      durable_lsn_ = frozen_end_lsn;
    }
    sync_fd_ = -1;  // nothing un-durable remains; next append re-arms
    stats_.rotations += 1;
    durable_cv_.NotifyAll();
  }
  ::close(old_fd);
  active_fd_ = -1;
  lsn_base_ = frozen_end_lsn;

  const Status opened = OpenActiveLocked(wal::FileSeq(old_key) + 1);
  if (!opened.ok()) {
    poisoned_ = true;
    return opened;
  }
  *frozen_key = old_key;
  return Status::Ok();
}

void Wal::FlusherMain() {
  MutexLock lock(flush_mu_);
  while (true) {
    while (!stop_ && (sync_fd_ < 0 || durable_lsn_ >= appended_lsn_ || sync_failed_)) {
      flush_cv_.Wait(lock);
    }
    if (stop_) {
      return;
    }
    // Group-commit accumulation window: let concurrent committers pile onto
    // this fsync before issuing it.
    if (options_.flush_interval > Duration::zero()) {
      flush_cv_.WaitFor(lock, options_.flush_interval);
      if (stop_) {
        return;
      }
      if (sync_fd_ < 0 || durable_lsn_ >= appended_lsn_) {
        continue;  // rotation made everything durable while we slept
      }
    }
    const int fd = sync_fd_;
    const uint64_t target = appended_lsn_;
    fsync_inflight_fd_ = fd;
    lock.Unlock();
    int rc;
    do {
      rc = ::fdatasync(fd);
    } while (rc != 0 && errno == EINTR);
    lock.Lock();
    fsync_inflight_fd_ = -1;
    fsync_done_cv_.NotifyAll();
    stats_.fsyncs += 1;
    if (rc != 0) {
      // fsyncgate rules: after a failed fsync the kernel may have dropped
      // the dirty pages — never report the bytes durable, never retry as if
      // the next fsync could cover them.
      sync_failed_ = true;
      AFT_LOG(Error) << "wal fdatasync failed: " << std::strerror(errno)
                     << "; wal is now append-poisoned";
      durable_cv_.NotifyAll();
      continue;
    }
    if (durable_lsn_ < target) {
      durable_lsn_ = target;
    }
    durable_cv_.NotifyAll();
  }
}

uint64_t Wal::active_file_key() const {
  MutexLock lock(append_mu_);
  return active_key_;
}

uint64_t Wal::active_size() const {
  MutexLock lock(append_mu_);
  return active_size_;
}

Wal::Stats Wal::stats() const {
  MutexLock lock(flush_mu_);
  return stats_;
}

}  // namespace aft
