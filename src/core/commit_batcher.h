// Cross-transaction commit batching: group commit at the AFT protocol layer.
//
// CommitTransaction's storage cost is two ordered steps against the shared
// engine — the data versions, then (after the §3.3 barrier) the commit
// record. Every commit runs through this batcher, but it merges rounds only
// where one round costs less than its members' separate rounds: on an
// engine that fuses a unit's data with its record into one durable write
// (StorageEngine::CommitUnitsFuseDataWithRecord: the local engine's WAL
// append and group-committed fsync). Elsewhere — every simulated engine,
// where a commit is one record write of its own — merging would only make
// commits wait for each other and pay the slowest member's tail, so every
// commit runs its own round concurrently, with no batcher lock taken.
//
// Where rounds merge, the batcher coalesces them the way the WAL's group
// commit coalesces fsyncs (latch-and-piggyback): the first committer
// through becomes the round LEADER and executes the storage rounds for
// everyone queued behind it; followers park on a condvar and wake with
// their verdict already decided. Batches form adaptively — while a round
// is in flight new arrivals queue, and whatever depth accumulated by round
// completion IS the next batch. No timer, so a lone committer pays zero
// added latency: the solo fast path never touches the queue and its
// storage sequence is StorageEngine::CommitUnits' single-unit one.
//
// Per-transaction semantics are preserved, not averaged: unit-level §3.3
// ordering (a member's record is written only after ALL of that member's
// data is durable) and per-unit poisoning (one member's failed flush
// aborts that member alone — its record is never written — while its
// batch-mates commit).

#ifndef SRC_CORE_COMMIT_BATCHER_H_
#define SRC_CORE_COMMIT_BATCHER_H_

#include <functional>
#include <span>
#include <string>

#include "src/common/mutex.h"
#include "src/common/small_vector.h"
#include "src/common/status.h"
#include "src/core/commit_set_cache.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/storage_engine.h"

namespace aft {

// The aft_commit_stage_seconds{node=,stage=} family: one histogram child per
// commit-path stage. Stages are DISJOINT slices of one transaction's
// end-to-end commit latency (aft_node_commit_latency_ms), so per-commit
// stage observations sum to (at most) the e2e time — the reconciliation
// contract in docs/OBSERVABILITY.md. Exactly one of the queue_wait_* stages
// applies per commit, keyed by the transaction's batch role. Registered
// find-or-create, so the node and its batcher share children.
struct CommitStageHistograms {
  obs::Histogram* txn_lock_wait;        // acquiring the transaction's lock
  obs::Histogram* queue_wait_leader;    // batcher queue, txn led its round
  obs::Histogram* queue_wait_follower;  // batcher queue, txn piggybacked
  obs::Histogram* data_flush;           // data-version round, minus barrier
  obs::Histogram* barrier;              // §3.3 straggler wait
  obs::Histogram* record_write;         // commit-record round / WAL fsync
  obs::Histogram* gossip_publish;       // staging the round for broadcast

  static CommitStageHistograms ForNode(const std::string& node_id);
};

class CommitBatcher {
 public:
  // One transaction's contribution to a round, fully prepared by the caller
  // (under its transaction lock) before submission. The batcher owns the
  // struct from Commit() entry until Commit() returns; `unit` may be
  // consumed by the storage engine either way.
  struct Pending {
    CommitUnit unit;              // data ops, commit record, optional hook
    CommitRecordPtr record;       // in-memory record, for the publisher
    obs::TraceContext trace;      // transaction's trace, follows into gossip
    Status result;                // verdict, written by the round leader
    bool done = false;            // round-completion flag (batcher mutex)
    uint64_t enqueued_ns = 0;     // steady ns at enqueue; 0 = solo, never queued
  };

  // Invoked by the round leader — with no batcher lock held — once per
  // round that committed anything, with exactly the members whose commit
  // records were durably written. The node stages them for broadcast under
  // one lock hold; the gossip bus sends them on its next interval round.
  using RoundPublisher = std::function<void(std::span<Pending* const> committed)>;

  CommitBatcher(const std::string& node_id, StorageEngine& storage, RoundPublisher publisher);

  CommitBatcher(const CommitBatcher&) = delete;
  CommitBatcher& operator=(const CommitBatcher&) = delete;

  // Commits `pending` as part of some round (possibly alone) and returns
  // its individual verdict; blocks until the round containing it completes.
  // On failure the member's commit record was NOT written, so the caller's
  // transaction stays retryable. Asks the engine once per call whether
  // rounds merge; a non-merging commit is recorded as a solo leader
  // (batch size 1, zero queue wait).
  Status Commit(Pending& pending);

 private:
  // Executes one storage round for `members` (a solo commit is a round of
  // one); `leader` is the member whose thread runs the round (it observes
  // the queue_wait_leader stage, the rest queue_wait_follower). No batcher
  // lock held: the engine call is the slow part, and running it unlatched
  // is what lets the next batch form meanwhile.
  void ExecuteRound(std::span<Pending* const> members, const Pending* leader);

  // Stamps the per-phase lifecycle spans ("CommitFlush",
  // "CommitRecordWrite") over [start_us, end_us] for every sampled member.
  // The round persists data versions and commit records in one engine
  // call, so both stages share the round's window.
  void RecordRoundSpans(std::span<Pending* const> members, uint64_t start_us,
                        uint64_t end_us) const;

  // Per-member stage attribution for one executed round: observes the
  // round's CommitStageProfile (plus the publish time) into the
  // aft_commit_stage_seconds children for EVERY member, and emits Stage*
  // child trace spans for sampled members. `round_start_ns` is steady-clock
  // (queue-wait math), `span_start_us` is tracer-clock (span layout).
  void ObserveRoundStages(std::span<Pending* const> members, const CommitStageProfile& profile,
                          double publish_s, uint64_t round_start_ns,
                          uint64_t span_start_us) const;

  const std::string node_id_;
  StorageEngine& storage_;
  const RoundPublisher publisher_;

  Mutex mu_{"batcher.queue"};
  CondVar cv_;
  // True while a leader is off executing a round; arrivals queue behind it.
  bool round_in_flight_ GUARDED_BY(mu_) = false;
  SmallVector<Pending*, 16> queue_ GUARDED_BY(mu_);

  // aft_commit_batch_* families (docs/OBSERVABILITY.md), labeled {node=}.
  obs::Histogram* batch_size_;
  obs::Counter* rounds_;
  obs::Counter* leader_commits_;
  obs::Counter* follower_commits_;
  CommitStageHistograms stages_;
};

}  // namespace aft

#endif  // SRC_CORE_COMMIT_BATCHER_H_
