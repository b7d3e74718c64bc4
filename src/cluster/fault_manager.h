// The fault manager (§4.2, §5.2, §6.7).
//
// Lives OFF the transaction critical path and has three duties:
//
//  1. Liveness: it receives every node's committed transactions without
//     pruning, periodically scans the Transaction Commit Set in storage, and
//     notifies all nodes of any commit record it never heard about — so a
//     commit acknowledged by a node that died before broadcasting is still
//     surfaced (§4.2). It is itself stateless-recoverable: all of its state
//     can be rebuilt by re-scanning the Commit Set.
//
//  2. Global data GC: it determines superseded transactions (Algorithm 2),
//     asks every node whether the transaction can be forgotten, and only
//     then deletes the transaction's key versions and commit record from
//     storage, on a dedicated deletion pool (§5.2).
//
//  3. Failure detection and replacement: it watches node health and brings
//     up replacements, modelling the paper's measured delays — ~5 s to
//     declare a node failed and ~45 s for the replacement to download its
//     container and warm its metadata cache (§6.7, Figure 10).

#ifndef SRC_CLUSTER_FAULT_MANAGER_H_
#define SRC_CLUSTER_FAULT_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/common/thread_pool.h"
#include "src/cluster/load_balancer.h"
#include "src/cluster/multicast_bus.h"
#include "src/core/aft_node.h"
#include "src/obs/metrics.h"

namespace aft {

struct FaultManagerOptions {
  // Commit-set storage scan for missed commits (§4.2).
  Duration scan_interval = std::chrono::seconds(5);
  // Records younger than this are skipped by the scan: they are normally
  // still in flight to the 1-second gossip, not missing.
  Duration liveness_grace = std::chrono::seconds(3);
  // Global GC round period (§5.2).
  Duration gc_interval = Millis(1000);
  size_t gc_max_per_round = 4096;
  bool enable_global_gc = true;
  // Dedicated deletion cores (the paper used 1 of 4; the default here is 2
  // so deletion keeps pace with multi-node deployments committing >1500
  // txn/s — deletes are charged simulated storage latency like any client).
  size_t delete_pool_threads = 2;
  // Fan-out cap for maintenance I/O on the shared IoExecutor: the liveness
  // scan fetches its candidate commit records with at most this many
  // concurrent lanes, and each global-GC round splits its victims into at
  // most this many delete groups. Maintenance is off the critical path and
  // must not crowd commit/read traffic off the executor, so this stays well
  // below the executor width.
  size_t maintenance_parallelism = 8;

  // Node health poll period and the modelled recovery delays (Figure 10).
  Duration detection_interval = Millis(1000);
  Duration failure_detection_delay = std::chrono::seconds(5);
  Duration container_download_time = std::chrono::seconds(45);
  bool enable_node_replacement = true;

  // Orphaned key versions — written by a node that crashed before its
  // commit record landed (§3.3) — are deleted once they have been visible
  // without a commit record for this long. Must exceed the node transaction
  // timeout so in-flight spilled buffers are never mistaken for orphans.
  Duration orphan_grace = std::chrono::seconds(90);
  // The sweep lists every version key in storage; keep it infrequent.
  Duration orphan_sweep_interval = std::chrono::seconds(30);
};

struct FaultManagerStats {
  std::atomic<uint64_t> records_ingested{0};
  // Records the liveness scan found in storage that some live node lacked.
  std::atomic<uint64_t> missed_commits_recovered{0};
  std::atomic<uint64_t> txns_deleted{0};
  std::atomic<uint64_t> versions_deleted{0};
  std::atomic<uint64_t> orphans_deleted{0};
  std::atomic<uint64_t> gc_rounds{0};
  std::atomic<uint64_t> failures_detected{0};
  std::atomic<uint64_t> nodes_replaced{0};
};

class FaultManager {
 public:
  // Creates a replacement AFT node; the deployment owns the returned node.
  using NodeFactory = std::function<AftNode*(const std::string& node_id)>;

  FaultManager(Clock& clock, StorageEngine& storage, LoadBalancer& balancer, MulticastBus& bus,
               FaultManagerOptions options = {});
  ~FaultManager();

  FaultManager(const FaultManager&) = delete;
  FaultManager& operator=(const FaultManager&) = delete;

  // Hooks this manager up as the bus's unpruned sink and begins watching
  // `node` for failure.
  void Manage(AftNode* node);

  void SetNodeFactory(NodeFactory factory);

  // Bus sink: ingest an unpruned committed set (§4.2).
  void IngestCommits(const std::vector<CommitRecordPtr>& records);

  // One storage scan for commit records nobody broadcast; notifies nodes.
  // Returns the number of records new to the fault manager's own view;
  // stats().missed_commits_recovered counts those some live node lacked.
  size_t RunLivenessScanOnce();

  // One global GC round; returns the number of transactions whose data was
  // deleted from storage.
  size_t RunGlobalGcOnce();

  // One failure-detection pass; kicks off replacement for dead nodes.
  void CheckForFailuresOnce();

  // One sweep for orphaned key versions: version objects in storage whose
  // writer has no commit record anywhere after `orphan_grace`. These are the
  // spilled/partial writes of crashed transactions (§3.3) — invisible but
  // occupying storage. Returns the number of versions deleted.
  size_t RunOrphanSweepOnce();

  // Background driver multiplexing all three duties. Stop also abandons a
  // replacement still inside its modelled delays: its node never starts.
  void Start();
  void Stop();

  const FaultManagerStats& stats() const { return stats_; }

 private:
  void Loop();
  void ReplaceNode(const std::string& failed_id);
  std::vector<AftNode*> ManagedNodes() const;

  Clock& clock_;
  StorageEngine& storage_;
  LoadBalancer& balancer_;
  MulticastBus& bus_;
  const FaultManagerOptions options_;

  // Complete (unpruned) view of committed transactions.
  CommitSetCache commits_;
  KeyVersionIndex index_;

  // Writer UUIDs of every commit record ever seen (including ones whose
  // data the GC already deleted) — the orphan sweep's whitelist.
  mutable Mutex known_writers_mu_;
  std::unordered_set<Uuid> known_writers_ GUARDED_BY(known_writers_mu_);
  // Orphan candidates: version storage key -> when first seen.
  std::unordered_map<std::string, TimePoint> orphan_candidates_ GUARDED_BY(known_writers_mu_);

  mutable Mutex nodes_mu_;
  std::vector<AftNode*> managed_nodes_ GUARDED_BY(nodes_mu_);
  std::unordered_set<std::string> handled_failures_ GUARDED_BY(nodes_mu_);
  NodeFactory factory_ GUARDED_BY(nodes_mu_);

  ThreadPool delete_pool_;
  std::atomic<bool> running_{false};
  // Set by Stop; the loop waits on it between passes, and a replacement
  // through its modelled delays.
  std::atomic<bool> stop_{false};
  std::thread thread_;
  Mutex replacements_mu_;
  std::vector<std::thread> replacement_threads_ GUARDED_BY(replacements_mu_);

  FaultManagerStats stats_;

  // Wall-clock duration of each maintenance sweep
  // (aft_fm_sweep_duration_ms{sweep=liveness|gc|orphan}).
  struct Instruments {
    obs::Histogram* liveness_scan_ms = nullptr;
    obs::Histogram* gc_round_ms = nullptr;
    obs::Histogram* orphan_sweep_ms = nullptr;
  };
  Instruments metrics_;
  // Callback counters wrapping `stats_` (read at exposition time).
  std::vector<obs::ScopedMetricCallback> metric_callbacks_;
};

}  // namespace aft

#endif  // SRC_CLUSTER_FAULT_MANAGER_H_
