// Per-transaction state held by an AFT node.
//
// A transaction (one logical request, possibly spanning several FaaS
// functions) is identified by its UUID while running; the commit timestamp —
// and thus the full TxnId — is assigned at commit time (§3.1). The state
// bundles the Atomic Write Buffer with the dynamically constructed atomic
// read set that Algorithm 1 maintains.

#ifndef SRC_CORE_TRANSACTION_H_
#define SRC_CORE_TRANSACTION_H_

#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/status.h"
#include "src/common/uuid.h"
#include "src/core/commit_set_cache.h"
#include "src/core/txn_id.h"
#include "src/obs/trace.h"

namespace aft {

enum class TxnStatus {
  kRunning,
  kCommitting,
  kCommitted,
  kAborted,
};

// One entry of the transaction's read set R: the version of a key it read,
// with the commit record pinned so the cowritten set stays available even if
// the metadata GC concurrently drops it from the node's cache.
struct ReadSetEntry {
  TxnId version;
  CommitRecordPtr record;
};

// A transaction's data writes issued before its commit round — §3.3's
// intermediary versions, which a saturated write buffer spills while the
// transaction still runs — which the round's barrier waits for before
// writing the commit record.
// Thread-safe: the issuer calls Begin() before sending a write and Finish()
// once storage answered; the commit round Wait()s.
class EarlyWrites {
 public:
  void Begin() {
    MutexLock lock(mu_);
    ++in_flight_;
  }

  // Records the outcome of one write begun earlier; `keys` are the user
  // keys whose versions it carried.
  void Finish(std::span<const std::string> keys, const Status& status) {
    MutexLock lock(mu_);
    if (!status.ok()) {
      if (failure_.ok()) {
        failure_ = status;
      }
      failed_keys_.insert(failed_keys_.end(), keys.begin(), keys.end());
    }
    if (--in_flight_ == 0) {
      done_cv_.NotifyAll();
    }
  }

  // Blocks until no write is in flight. Returns the first failure recorded
  // since the last TakeFailedKeys(), or OK.
  Status Wait() {
    MutexLock lock(mu_);
    while (in_flight_ > 0) {
      done_cv_.Wait(lock);
    }
    return failure_;
  }

  // Returns the keys of failed writes and clears the recorded failure.
  std::vector<std::string> TakeFailedKeys() {
    MutexLock lock(mu_);
    failure_ = Status::Ok();
    return std::exchange(failed_keys_, {});
  }

 private:
  // One site for every transaction's latch (see
  // TransactionState::ContentionSiteFor).
  static contention::ContentionSite* ContentionSiteFor() {
    static contention::ContentionSite* site = contention::LockSite("txn.early_writes");
    return site;
  }

  Mutex mu_{ContentionSiteFor()};
  CondVar done_cv_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  Status failure_ GUARDED_BY(mu_);
  std::vector<std::string> failed_keys_ GUARDED_BY(mu_);
};

struct TransactionState {
  explicit TransactionState(Uuid id, TimePoint start) : uuid(id), start_time(start) {}

  // All transactions share ONE contention site ("txn.state") — per-object
  // sites would flood the registry, and the cached function-static keeps
  // transaction construction free of registry lookups.
  static contention::ContentionSite* ContentionSiteFor() {
    static contention::ContentionSite* site = contention::LockSite("txn.state");
    return site;
  }

  const Uuid uuid;
  const TimePoint start_time;

  // Lifecycle trace context (no-op unless the transaction was sampled at
  // start). Immutable after construction, so readable without `mu`.
  obs::TraceContext trace;

  // Guards everything below. Ops of one transaction are logically sequential
  // (a linear composition of functions), but retries after failures can
  // briefly overlap with the original attempt.
  mutable Mutex mu{ContentionSiteFor()};

  TxnStatus status GUARDED_BY(mu) = TxnStatus::kRunning;

  // ---- Atomic Write Buffer (§3.3) -----------------------------------------
  // key -> payload. `dirty` tracks entries whose current payload has not
  // been sent to storage; `early_written` keys had a version write sent
  // before commit (a spill, or a failed commit round), so their version
  // object may exist — invisible until the commit record lands, and never
  // overwritten: such a key, once dirty again, commits inside the record
  // object.
  std::map<std::string, std::string> write_buffer GUARDED_BY(mu);
  std::unordered_set<std::string> dirty GUARDED_BY(mu);
  std::unordered_set<std::string> early_written GUARDED_BY(mu);
  uint64_t buffered_bytes GUARDED_BY(mu) = 0;  // payload bytes of `dirty`

  // Spills still in flight, and the failed ones (own lock, a leaf under
  // `mu`). The commit unit's after_data_write hook waits for them.
  EarlyWrites early_writes;

  // ---- Atomic read set R (§3.4) --------------------------------------------
  // Only non-NULL reads enter R, exactly as in Algorithm 1.
  std::unordered_map<std::string, ReadSetEntry> read_set GUARDED_BY(mu);

  // Transactions whose versions we have read — the local GC must not drop
  // their metadata while we run (§5.1).
  std::unordered_set<TxnId> reads_from GUARDED_BY(mu);

  // Set at commit.
  TxnId commit_id GUARDED_BY(mu);
};

}  // namespace aft

#endif  // SRC_CORE_TRANSACTION_H_
