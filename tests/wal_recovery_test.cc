// Crash recovery for the WAL-backed LocalEngine (src/storage/wal_recovery.h).
//
// Covers the recovery rules at both layers:
//   * WAL level — torn tails are truncated at the first bad record, a bad CRC
//     mid-log drops every later file, *.tmp staging files are purged.
//   * Engine level — replay is idempotent, compaction+replay is
//     state-equivalent, group commit really batches fsyncs.
//   * Process level — a kill -9 crash harness: a child process commits AFT
//     transactions through a LocalEngine until SIGKILLed mid-stream, then the
//     parent replays the log and checks the §3.3 invariant that every visible
//     commit record's data writes are durable.
//
// The crash harness needs the binary to double as its own child
// (`wal_recovery_test --crash-child <dir>`), so this file carries its own
// main() and is registered in tests/CMakeLists.txt WITHOUT gtest_main.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/core/aft_node.h"
#include "src/core/records.h"
#include "src/storage/local_engine.h"
#include "src/storage/wal.h"
#include "src/storage/wal_recovery.h"

namespace aft {
namespace {

// ---- helpers ----------------------------------------------------------------

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/aft_walrec_XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    path_ = dir == nullptr ? "" : dir;
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path_, ec);
    }
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::map<std::string, std::string> Snapshot(StorageEngine& engine) {
  std::map<std::string, std::string> out;
  auto keys = engine.List("");
  EXPECT_TRUE(keys.ok());
  for (const std::string& key : *keys) {
    auto value = engine.Get(key);
    EXPECT_TRUE(value.ok()) << key;
    if (value.ok()) {
      out[key] = *value;
    }
  }
  return out;
}

// The single on-disk WAL file of a freshly written, un-rotated log.
std::string OnlyWalFilePath(const std::string& dir) {
  auto files = ListWalFiles(dir);
  EXPECT_TRUE(files.ok());
  EXPECT_EQ(files->size(), 1u);
  return files->empty() ? "" : files->front().path;
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return static_cast<uint64_t>(st.st_size);
}

void AppendRaw(const std::string& path, std::string_view bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  ASSERT_GE(fd, 0) << path;
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
  ::close(fd);
}

void FlipByteAt(const std::string& path, uint64_t offset) {
  int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0) << path;
  char b = 0;
  ASSERT_EQ(::pread(fd, &b, 1, static_cast<off_t>(offset)), 1);
  b ^= 0x5a;
  ASSERT_EQ(::pwrite(fd, &b, 1, static_cast<off_t>(offset)), 1);
  ::close(fd);
}

// Replays `dir` collecting (key, value) pairs in replay order.
Result<WalReplayStats> ReplayCollect(const std::string& dir,
                                     std::vector<std::pair<std::string, std::string>>* out) {
  return ReplayWal(dir, [out](const WalRecordEvent& event) {
    out->emplace_back(std::string(event.key), std::string(event.value));
  });
}

// ---- WAL-level recovery rules -----------------------------------------------

TEST(WalRecoveryTest, RoundTripAndLocatorPread) {
  TempDir dir;
  auto wal = Wal::Open(dir.path(), 1);
  ASSERT_TRUE(wal.ok());

  const std::vector<Wal::AppendOp> ops = {
      {wal::RecordOp::kPut, "alpha", "value-a"},
      {wal::RecordOp::kPut, "beta", "value-bb"},
      {wal::RecordOp::kDelete, "alpha", ""},
  };
  std::vector<Wal::AppendedLoc> locs(ops.size());
  auto lsn = (*wal)->AppendBatch(ops, locs.data());
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());

  // The locator points at exactly the value bytes.
  const std::string path = wal::WalFilePath(dir.path(), locs[1].file_key);
  int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  std::string buf(locs[1].value_len, '\0');
  ASSERT_EQ(::pread(fd, buf.data(), buf.size(), static_cast<off_t>(locs[1].value_offset)),
            static_cast<ssize_t>(buf.size()));
  ::close(fd);
  EXPECT_EQ(buf, "value-bb");
  wal->reset();

  std::vector<std::pair<std::string, std::string>> replayed;
  auto stats = ReplayCollect(dir.path(), &replayed);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->truncated);
  EXPECT_EQ(stats->records, 3u);
  ASSERT_EQ(replayed.size(), 3u);
  EXPECT_EQ(replayed[0], (std::pair<std::string, std::string>{"alpha", "value-a"}));
  EXPECT_EQ(replayed[1], (std::pair<std::string, std::string>{"beta", "value-bb"}));
  EXPECT_EQ(replayed[2].first, "alpha");  // the delete, value empty
  EXPECT_TRUE(replayed[2].second.empty());
}

// The on-disk record format, pinned: the header of a put with a 4 KiB value
// carries the payload length and the CRC-32 that the bytewise CRC loop wrote,
// so a faster kernel cannot move the bytes of an existing log.
TEST(WalRecoveryTest, FourKiBPutRecordHeaderIsPinned) {
  TempDir dir;
  auto wal = Wal::Open(dir.path(), 1);
  ASSERT_TRUE(wal.ok());
  std::string value(4096, '\0');
  for (size_t i = 0; i < value.size(); ++i) {
    value[i] = static_cast<char>((i * 131 + 7) & 0xFF);
  }
  const std::vector<Wal::AppendOp> ops = {{wal::RecordOp::kPut, "pinned-key", value}};
  std::vector<Wal::AppendedLoc> locs(ops.size());
  auto lsn = (*wal)->AppendBatch(ops, locs.data());
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  wal->reset();

  const std::string path = OnlyWalFilePath(dir.path());
  ASSERT_EQ(FileSize(path), locs[0].record_bytes);
  int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  char header[wal::kRecordHeaderSize];
  ASSERT_EQ(::pread(fd, header, sizeof(header), 0), static_cast<ssize_t>(sizeof(header)));
  ::close(fd);
  uint32_t payload_len = 0;
  uint32_t crc = 0;
  std::memcpy(&payload_len, header, 4);
  std::memcpy(&crc, header + 4, 4);
  EXPECT_EQ(payload_len, 1u + 4 + 10 + 4 + 4096);
  EXPECT_EQ(crc, 0xD00307C0u);

  std::vector<std::pair<std::string, std::string>> replayed;
  auto stats = ReplayCollect(dir.path(), &replayed);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->truncated);
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0].second, value);
}

TEST(WalRecoveryTest, TornTailIsTruncatedAtFirstBadRecord) {
  TempDir dir;
  auto wal = Wal::Open(dir.path(), 1);
  ASSERT_TRUE(wal.ok());
  const std::vector<Wal::AppendOp> ops = {
      {wal::RecordOp::kPut, "k1", "v1"},
      {wal::RecordOp::kPut, "k2", "v2"},
  };
  std::vector<Wal::AppendedLoc> locs(ops.size());
  auto lsn = (*wal)->AppendBatch(ops, locs.data());
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  wal->reset();

  // A torn append: a plausible header promising 100 payload bytes, followed
  // by only four — the write that was in flight when the machine died.
  const std::string path = OnlyWalFilePath(dir.path());
  const uint64_t intact_size = FileSize(path);
  std::string torn(wal::kRecordHeaderSize + 4, '\0');
  torn[0] = 100;  // little-endian payload length 100
  AppendRaw(path, torn);

  std::vector<std::pair<std::string, std::string>> replayed;
  auto stats = ReplayCollect(dir.path(), &replayed);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->truncated);
  EXPECT_EQ(stats->truncated_bytes, torn.size());
  EXPECT_EQ(stats->records, 2u);
  ASSERT_EQ(replayed.size(), 2u);
  // Recovery repaired the file in place: the torn bytes are gone from disk.
  EXPECT_EQ(FileSize(path), intact_size);

  // A second replay of the repaired log is clean.
  replayed.clear();
  auto again = ReplayCollect(dir.path(), &replayed);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->truncated);
  EXPECT_EQ(replayed.size(), 2u);
}

TEST(WalRecoveryTest, TornHeaderShorterThanFrameIsTruncated) {
  TempDir dir;
  auto wal = Wal::Open(dir.path(), 1);
  ASSERT_TRUE(wal.ok());
  const std::vector<Wal::AppendOp> ops = {{wal::RecordOp::kPut, "k1", "v1"}};
  std::vector<Wal::AppendedLoc> locs(ops.size());
  auto lsn = (*wal)->AppendBatch(ops, locs.data());
  ASSERT_TRUE(lsn.ok());
  ASSERT_TRUE((*wal)->Sync(*lsn).ok());
  wal->reset();

  const std::string path = OnlyWalFilePath(dir.path());
  const uint64_t intact_size = FileSize(path);
  AppendRaw(path, "\x03");  // 1 stray byte: shorter than any record header

  std::vector<std::pair<std::string, std::string>> replayed;
  auto stats = ReplayCollect(dir.path(), &replayed);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->truncated);
  EXPECT_EQ(replayed.size(), 1u);
  EXPECT_EQ(FileSize(path), intact_size);
}

TEST(WalRecoveryTest, BadCrcMidLogDropsEveryLaterFile) {
  TempDir dir;
  auto wal = Wal::Open(dir.path(), 1);
  ASSERT_TRUE(wal.ok());

  // Three files of three records each, rotated by hand so the boundaries are
  // known exactly.
  auto append_three = [&](int file_no) {
    for (int r = 0; r < 3; ++r) {
      const std::string key = "f" + std::to_string(file_no) + "r" + std::to_string(r);
      const std::vector<Wal::AppendOp> ops = {{wal::RecordOp::kPut, key, "vvvv"}};
      Wal::AppendedLoc loc;
      auto lsn = (*wal)->AppendBatch(ops, &loc);
      ASSERT_TRUE(lsn.ok());
      ASSERT_TRUE((*wal)->Sync(*lsn).ok());
    }
  };
  append_three(1);
  ASSERT_TRUE((*wal)->Rotate().ok());
  append_three(2);
  ASSERT_TRUE((*wal)->Rotate().ok());
  append_three(3);
  wal->reset();

  // Corrupt one payload byte of file 2's MIDDLE record: the key byte right
  // after the record's header + op + key-length prefix.
  const uint64_t record_bytes = wal::PutRecordBytes(4, 4);  // "f2r1" / "vvvv"
  const std::string file2 = wal::WalFilePath(dir.path(), wal::MakeFileKey(2, 0));
  const std::string file3 = wal::WalFilePath(dir.path(), wal::MakeFileKey(3, 0));
  FlipByteAt(file2, record_bytes + wal::kRecordHeaderSize + 1 + 4);

  std::vector<std::pair<std::string, std::string>> replayed;
  auto stats = ReplayCollect(dir.path(), &replayed);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->truncated);
  EXPECT_EQ(stats->dropped_files, 1u);
  // max_seq covers DROPPED files too, so the next Open can never collide
  // with a file name recovery just deleted.
  EXPECT_EQ(stats->max_seq, 3u);

  // All of file 1, the intact prefix of file 2, nothing from file 3.
  std::vector<std::string> keys;
  for (const auto& [key, value] : replayed) {
    keys.push_back(key);
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"f1r0", "f1r1", "f1r2", "f2r0"}));
  EXPECT_EQ(FileSize(file2), record_bytes);  // truncated to the intact prefix
  struct stat st;
  EXPECT_NE(::stat(file3.c_str(), &st), 0);  // later file deleted outright
}

TEST(WalRecoveryTest, StagingTmpFilesArePurgedOnOpen) {
  TempDir dir;
  // A compaction that crashed before its rename leaves a *.tmp behind; an
  // unrelated file must be left alone.
  const std::string tmp = dir.path() + "/wal-000004.c1.log.tmp";
  const std::string other = dir.path() + "/notes.txt";
  for (const std::string& p : {tmp, other}) {
    FILE* f = std::fopen(p.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("leftover", f);
    std::fclose(f);
  }

  auto engine = LocalEngine::Open(dir.path());
  ASSERT_TRUE(engine.ok());
  struct stat st;
  EXPECT_NE(::stat(tmp.c_str(), &st), 0);
  EXPECT_EQ(::stat(other.c_str(), &st), 0);
}

// ---- engine-level recovery --------------------------------------------------

LocalEngineOptions SmallFileOptions() {
  LocalEngineOptions options;
  options.max_log_bytes = 4096;  // force frequent rotation
  options.start_compaction_thread = false;
  return options;
}

TEST(WalRecoveryTest, ReplayIsIdempotentAcrossReopens) {
  TempDir dir;
  std::map<std::string, std::string> expected;
  {
    auto engine = LocalEngine::Open(dir.path(), SmallFileOptions());
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < 120; ++i) {
      const std::string key = "key-" + std::to_string(i % 40);  // overwrites
      const std::string value = "gen-" + std::to_string(i) + std::string(48, 'x');
      ASSERT_TRUE((*engine)->Put(key, value).ok());
      expected[key] = value;
    }
    for (int i = 0; i < 40; i += 3) {
      const std::string key = "key-" + std::to_string(i);
      ASSERT_TRUE((*engine)->Delete(key).ok());
      expected.erase(key);
    }
    EXPECT_EQ(Snapshot(**engine), expected);
  }
  // Two crash/recover cycles: replay must converge to the same state each
  // time, and re-replaying a recovered log must change nothing.
  for (int cycle = 0; cycle < 2; ++cycle) {
    auto engine = LocalEngine::Open(dir.path(), SmallFileOptions());
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(Snapshot(**engine), expected) << "cycle " << cycle;
  }
}

TEST(WalRecoveryTest, CompactionThenReplayIsStateEquivalent) {
  TempDir dir;
  std::map<std::string, std::string> expected;
  auto engine = LocalEngine::Open(dir.path(), SmallFileOptions());
  ASSERT_TRUE(engine.ok());
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 60; ++i) {
      const std::string key = "key-" + std::to_string(i);
      const std::string value = "r" + std::to_string(round) + "-" + std::string(64, 'a' + i % 26);
      ASSERT_TRUE((*engine)->Put(key, value).ok());
      expected[key] = value;
    }
  }
  for (int i = 0; i < 60; i += 2) {
    const std::string key = "key-" + std::to_string(i);
    ASSERT_TRUE((*engine)->Delete(key).ok());
    expected.erase(key);
  }
  EXPECT_EQ(Snapshot(**engine), expected);

  const LocalEngine::FileStats before = (*engine)->file_stats();
  ASSERT_TRUE((*engine)->CompactNow().ok());
  const LocalEngine::FileStats after = (*engine)->file_stats();
  // Three rounds of overwrites plus the deletes are reclaimed.
  EXPECT_LT(after.total_bytes, before.total_bytes);
  EXPECT_LT(after.files, before.files);
  EXPECT_EQ(after.dead_bytes, 0u);
  EXPECT_GE((*engine)->compactions(), 1u);
  EXPECT_GT((*engine)->compaction_reclaimed_bytes(), 0u);
  EXPECT_EQ(Snapshot(**engine), expected);

  // The compacted log replays to the same state.
  engine->reset();
  auto reopened = LocalEngine::Open(dir.path(), SmallFileOptions());
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Snapshot(**reopened), expected);
}

TEST(WalRecoveryTest, GroupCommitSharesFsyncsAcrossWriters) {
  TempDir dir;
  LocalEngineOptions options;
  options.flush_interval = Millis(2);  // accumulation window forms batches
  options.start_compaction_thread = false;
  auto engine = LocalEngine::Open(dir.path(), options);
  ASSERT_TRUE(engine.ok());

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        ASSERT_TRUE((*engine)->Put(key, "value").ok());
      }
    });
  }
  for (std::thread& w : writers) {
    w.join();
  }

  const Wal::Stats stats = (*engine)->wal_stats();
  EXPECT_EQ(stats.records, static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_GT(stats.fsyncs, 0u);
  // The point of group commit: one fdatasync acknowledges many writers.
  EXPECT_LT(stats.fsyncs, stats.records);
  EXPECT_GE(stats.sync_waiters_released, stats.records);
}

// Regression for two compaction races: (1) a rotation racing the
// pre-compaction snapshot must never let the pass select — and unlink — the
// file the WAL is actively appending to (acked writes would vanish on
// replay, and later appends would fail); (2) a reader resolving a live key
// while compaction repoints the index under it must never see a spurious
// error. Tiny files keep the WAL rotating constantly so both windows stay
// hot while CompactNow passes run back to back.
TEST(WalRecoveryTest, CompactionRacesWritersAndReadersSafely) {
  TempDir dir;
  LocalEngineOptions options;
  options.max_log_bytes = 2048;  // rotate every dozen-odd records
  options.start_compaction_thread = false;
  options.fdatasync = false;  // no crash here; clean close flushes everything
  auto engine = LocalEngine::Open(dir.path(), options);
  ASSERT_TRUE(engine.ok());

  // Keys the reader thread hammers; written up front, never superseded.
  constexpr int kStableKeys = 16;
  for (int i = 0; i < kStableKeys; ++i) {
    ASSERT_TRUE((*engine)->Put("stable-" + std::to_string(i), std::string(100, 's')).ok());
  }

  // Writers are BOUNDED (not run-until-stopped): every file they roll keeps
  // an open read fd until a compaction pass absorbs it, so an unbounded
  // writer can outrun the compaction loop below into fd exhaustion.
  std::atomic<bool> stop{false};
  std::atomic<int> writers_done{0};
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 1500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kWriters; ++t) {
    workers.emplace_back([&, t] {
      // Overwrites feed compaction dead bytes; every ack must survive replay.
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::string key = "w" + std::to_string(t) + "-" + std::to_string(i % 32);
        const Status put = (*engine)->Put(key, std::string(120, static_cast<char>('a' + t)));
        EXPECT_TRUE(put.ok()) << put.message();
        if (!put.ok()) {
          break;
        }
      }
      writers_done.fetch_add(1, std::memory_order_release);
    });
  }
  workers.emplace_back([&] {
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      auto value = (*engine)->Get("stable-" + std::to_string(i % kStableKeys));
      EXPECT_TRUE(value.ok()) << value.status().message();
      if (!value.ok()) {
        return;
      }
    }
  });
  // Compact continuously while the writers churn, so every pass races live
  // appends, rotations, and reads.
  Status compact_status = Status::Ok();
  while (writers_done.load(std::memory_order_acquire) < kWriters) {
    compact_status = (*engine)->CompactNow();
    if (!compact_status.ok()) {
      break;
    }
  }
  if (compact_status.ok()) {
    // At least one pass even if the writers outran the loop, and a final
    // absorb of everything they left behind.
    compact_status = (*engine)->CompactNow();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : workers) {
    w.join();
  }
  ASSERT_TRUE(compact_status.ok()) << compact_status.message();
  EXPECT_GE((*engine)->compactions(), 1u);

  // Every acknowledged write is still there, both live and after a replay.
  const std::map<std::string, std::string> before = Snapshot(**engine);
  EXPECT_GE(before.size(), static_cast<size_t>(kStableKeys));
  engine->reset();
  auto reopened = LocalEngine::Open(dir.path(), options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Snapshot(**reopened), before);
}

// ---- kill -9 crash harness --------------------------------------------------

// Child body (run via `wal_recovery_test --crash-child <dir>`): commit AFT
// transactions through a LocalEngine forever, reporting each acknowledged
// commit on stdout. The parent SIGKILLs it mid-stream.
int CrashChildMain(const char* dir) {
  auto engine = LocalEngine::Open(dir);
  if (!engine.ok()) {
    return 3;
  }
  RealClock& clock = RealClock::Default();
  AftNode node("crash-child", **engine, clock);
  if (!node.Start().ok()) {
    return 4;
  }
  for (uint64_t i = 0;; ++i) {
    auto txid = node.StartTransaction();
    if (!txid.ok()) {
      return 5;
    }
    const std::string tag = "tag-" + std::to_string(i);
    for (int k = 0; k < 4; ++k) {
      if (!node.Put(*txid, "k" + std::to_string(k), tag).ok()) {
        return 6;
      }
    }
    if (!node.CommitTransaction(*txid).ok()) {
      return 7;
    }
    // One line per ACKNOWLEDGED commit — the parent kills us only after it
    // has proof of acknowledged transactions, which recovery must preserve.
    std::printf("committed %llu\n", static_cast<unsigned long long>(i));
    std::fflush(stdout);
  }
}

// Spawns the crash child with its stdout on a pipe; returns the pid.
pid_t SpawnCrashChild(const std::string& dir, int* out_fd) {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::pipe(fds), 0);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl("/proc/self/exe", "wal_recovery_test", "--crash-child", dir.c_str(),
            static_cast<char*>(nullptr));
    _exit(127);
  }
  ::close(fds[1]);
  *out_fd = fds[0];
  return pid;
}

// Reads the child's stdout until at least `want` commit lines arrived;
// returns the number seen (bails out after a 30s stall).
uint64_t AwaitCommits(int fd, uint64_t want) {
  uint64_t commits = 0;
  char buf[256];
  while (commits < want) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 30000);
    if (ready <= 0) {
      ADD_FAILURE() << "crash child stalled (saw " << commits << "/" << want << " commits)";
      break;
    }
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      ADD_FAILURE() << "crash child closed its pipe after " << commits << " commits";
      break;
    }
    for (ssize_t i = 0; i < n; ++i) {
      commits += buf[i] == '\n';
    }
  }
  return commits;
}

// The §3.3 write-ordering invariant, checked on the recovered store: every
// commit record that survived recovery must have every version object of its
// write set readable. (The converse — orphan versions without a commit
// record — is legal; the fault manager reaps those.)
void VerifyCommitInvariant(StorageEngine& engine, uint64_t* commit_records) {
  auto commit_keys = engine.List(kCommitPrefix);
  ASSERT_TRUE(commit_keys.ok());
  *commit_records = commit_keys->size();
  for (const std::string& commit_key : *commit_keys) {
    auto bytes = engine.Get(commit_key);
    ASSERT_TRUE(bytes.ok()) << commit_key;
    auto record = CommitRecord::Deserialize(*bytes);
    ASSERT_TRUE(record.ok()) << commit_key;
    for (const std::string& key : record->write_set) {
      auto version = engine.Get(VersionStorageKey(key, record->id.uuid));
      EXPECT_TRUE(version.ok())
          << "commit record " << commit_key << " is visible but its data write for '" << key
          << "' did not survive recovery — the write-ordering barrier is broken";
    }
  }
}

TEST(WalRecoveryCrashTest, KillNineDuringCommitStreamKeepsAckedCommitsReadable) {
  TempDir dir;
  uint64_t acked_total = 0;
  // Three crash cycles against the same directory: recovery has to be
  // correct not just after one crash but after crashes of recovered logs.
  for (int cycle = 0; cycle < 3; ++cycle) {
    int fd = -1;
    const pid_t pid = SpawnCrashChild(dir.path(), &fd);
    ASSERT_GT(pid, 0);
    const uint64_t acked = AwaitCommits(fd, 8);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    ::close(fd);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL)
        << "child did not die from SIGKILL (status " << wstatus << ")";
    acked_total += acked;
    ASSERT_GE(acked, 8u) << "cycle " << cycle;

    // Recover and check the invariant.
    auto engine = LocalEngine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << "cycle " << cycle;
    uint64_t commit_records = 0;
    VerifyCommitInvariant(**engine, &commit_records);
    // Every acknowledged commit survived. (More than acked may have: commits
    // the child completed after the parent's last pipe read are fine.)
    EXPECT_GE(commit_records, acked_total) << "cycle " << cycle;

    // A fresh AFT node over the recovered store serves a consistent cut:
    // all four keys exist and carry the same transaction's tag.
    RealClock& clock = RealClock::Default();
    AftNode node("verify-" + std::to_string(cycle), **engine, clock);
    ASSERT_TRUE(node.Start().ok());
    auto txid = node.StartTransaction();
    ASSERT_TRUE(txid.ok());
    std::string tag;
    for (int k = 0; k < 4; ++k) {
      auto read = node.Get(*txid, "k" + std::to_string(k));
      ASSERT_TRUE(read.ok());
      ASSERT_TRUE(read->has_value()) << "k" << k;
      if (k == 0) {
        tag = **read;
      } else {
        EXPECT_EQ(**read, tag) << "fractured read after recovery at k" << k;
      }
    }
  }
}

}  // namespace
}  // namespace aft

// Custom main: dispatch to the crash-child body when asked, otherwise run
// the suite. This is why the CMake target must not link gtest_main.
int main(int argc, char** argv) {
  if (argc >= 3 && std::string_view(argv[1]) == "--crash-child") {
    return aft::CrashChildMain(argv[2]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
