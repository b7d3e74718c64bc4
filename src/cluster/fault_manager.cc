#include "src/cluster/fault_manager.h"

#include <algorithm>

#include "src/common/histogram.h"

#include "src/common/logging.h"

namespace aft {

FaultManager::FaultManager(Clock& clock, StorageEngine& storage, LoadBalancer& balancer,
                           MulticastBus& bus, FaultManagerOptions options)
    : clock_(clock),
      storage_(storage),
      balancer_(balancer),
      bus_(bus),
      options_(options),
      delete_pool_(options.delete_pool_threads) {
  bus_.SetFaultManagerSink(
      [this](const std::vector<CommitRecordPtr>& records) { IngestCommits(records); });
  auto& reg = obs::MetricsRegistry::Global();
  auto sweep = [&](const char* kind) {
    return reg.GetHistogram("aft_fm_sweep_duration_ms",
                            "Wall-clock duration of one maintenance sweep (ms)",
                            DefaultLatencyBoundariesMs(), {{"sweep", kind}});
  };
  metrics_.liveness_scan_ms = sweep("liveness");
  metrics_.gc_round_ms = sweep("gc");
  metrics_.orphan_sweep_ms = sweep("orphan");
  auto wrap = [&](const char* metric, const char* help, const std::atomic<uint64_t>& cell) {
    metric_callbacks_.push_back(reg.RegisterCallback(
        metric, help, obs::CallbackType::kCounter, {},
        [&cell] { return static_cast<double>(cell.load(std::memory_order_relaxed)); }));
  };
  wrap("aft_fm_records_ingested_total", "Unpruned commit records ingested from gossip",
       stats_.records_ingested);
  wrap("aft_fm_missed_commits_recovered_total",
       "Commit records the storage scan found that some live node lacked",
       stats_.missed_commits_recovered);
  wrap("aft_fm_txns_deleted_total", "Transactions garbage-collected globally",
       stats_.txns_deleted);
  wrap("aft_fm_versions_deleted_total", "Key versions deleted by the global GC",
       stats_.versions_deleted);
  wrap("aft_fm_orphans_deleted_total", "Orphaned versions deleted by the sweep",
       stats_.orphans_deleted);
  wrap("aft_fm_gc_rounds_total", "Global GC rounds run", stats_.gc_rounds);
  wrap("aft_fm_failures_detected_total", "Node failures detected", stats_.failures_detected);
  wrap("aft_fm_nodes_replaced_total", "Dead nodes replaced", stats_.nodes_replaced);
}

FaultManager::~FaultManager() { Stop(); }

void FaultManager::Manage(AftNode* node) {
  MutexLock lock(nodes_mu_);
  if (std::find(managed_nodes_.begin(), managed_nodes_.end(), node) == managed_nodes_.end()) {
    managed_nodes_.push_back(node);
  }
}

void FaultManager::SetNodeFactory(NodeFactory factory) {
  MutexLock lock(nodes_mu_);
  factory_ = std::move(factory);
}

std::vector<AftNode*> FaultManager::ManagedNodes() const {
  MutexLock lock(nodes_mu_);
  return managed_nodes_;
}

void FaultManager::IngestCommits(const std::vector<CommitRecordPtr>& records) {
  for (const auto& record : records) {
    if (commits_.Add(record)) {
      index_.AddCommit(*record);
      stats_.records_ingested.fetch_add(1, std::memory_order_relaxed);
      MutexLock lock(known_writers_mu_);
      known_writers_.insert(record->id.uuid);
    }
  }
}

size_t FaultManager::RunLivenessScanOnce() {
  obs::ScopedHistogramTimer timer(metrics_.liveness_scan_ms);
  auto keys = storage_.List(kCommitPrefix);
  if (!keys.ok()) {
    return 0;
  }
  const int64_t now_micros = clock_.WallTimeMicros();
  const int64_t grace_micros =
      std::chrono::duration_cast<std::chrono::microseconds>(options_.liveness_grace).count();
  // Phase 1 (in-memory, cheap): records in storage we have never heard of.
  std::vector<std::string> candidates;
  for (const std::string& storage_key : keys.value()) {
    const TxnId id = TxnIdFromCommitStorageKey(storage_key);
    if (commits_.Contains(id) || commits_.HasLocallyDeleted(id)) {
      continue;
    }
    if (id.timestamp > now_micros - grace_micros) {
      continue;  // Fresh commit, presumably still in flight to the gossip.
    }
    candidates.push_back(storage_key);
  }
  if (candidates.empty()) {
    return 0;
  }
  // Phase 2: fetch the candidates, capped so this background pass never
  // crowds the commit path off the shared executor. Phase 3 (serial): merge
  // into the unpruned view; one thread keeps Add/AddCommit pairs atomic.
  std::vector<CommitRecordPtr> discovered;
  for (CommitRecordPtr& ptr : FetchCommitRecords(
           storage_, candidates, options_.maintenance_parallelism, "fault manager")) {
    if (ptr != nullptr && commits_.Add(ptr)) {
      index_.AddCommit(*ptr);
      {
        MutexLock lock(known_writers_mu_);
        known_writers_.insert(ptr->id.uuid);
      }
      discovered.push_back(std::move(ptr));
    }
  }
  if (!discovered.empty()) {
    // §4.2: data committed by a node that died before broadcasting must
    // still become visible everywhere. A record every live node already
    // knows (the dataset a fresh fault manager has not seen yet) is applied
    // all the same, but it was never missed.
    std::vector<AftNode*> live = ManagedNodes();
    std::erase_if(live, [](AftNode* node) { return !node->alive(); });
    const auto missed = std::count_if(
        discovered.begin(), discovered.end(), [&](const CommitRecordPtr& record) {
          return std::any_of(live.begin(), live.end(),
                             [&](AftNode* node) { return !node->KnowsCommit(record->id); });
        });
    for (AftNode* node : live) {
      node->ApplyRemoteCommits(discovered);
    }
    stats_.missed_commits_recovered.fetch_add(static_cast<uint64_t>(missed),
                                              std::memory_order_relaxed);
  }
  return discovered.size();
}

size_t FaultManager::RunGlobalGcOnce() {
  if (!options_.enable_global_gc) {
    return 0;
  }
  obs::ScopedHistogramTimer timer(metrics_.gc_round_ms);
  stats_.gc_rounds.fetch_add(1, std::memory_order_relaxed);
  std::vector<CommitRecordPtr> snapshot = commits_.Snapshot();
  // Oldest first (§5.2.1 mitigation).
  std::sort(snapshot.begin(), snapshot.end(),
            [](const CommitRecordPtr& a, const CommitRecordPtr& b) { return a->id < b->id; });
  const std::vector<AftNode*> nodes = ManagedNodes();
  std::vector<CommitRecordPtr> victims;
  for (const auto& record : snapshot) {
    if (victims.size() >= options_.gc_max_per_round) {
      break;
    }
    if (!IsTransactionSuperseded(*record, index_)) {
      continue;
    }
    // §5.2: delete only if every node has dropped the transaction locally
    // (and thus no running transaction can still read from it).
    const bool all_agree = std::all_of(nodes.begin(), nodes.end(), [&](AftNode* node) {
      return node->CanGloballyDelete(record->id);
    });
    if (!all_agree) {
      continue;
    }
    // Remove from our own view first so the liveness scan does not
    // resurrect the record while the deletion is in flight.
    index_.RemoveCommit(*record);
    commits_.Remove(record->id);
    victims.push_back(record);
  }
  if (victims.empty()) {
    return 0;
  }
  // The expensive storage deletes run on the dedicated deletion cores
  // (§5.2) and are batched aggressively — per-transaction delete calls
  // would cap the deletion rate far below the commit rate. The round's
  // victims are partitioned into up to maintenance_parallelism groups of
  // WHOLE records, one pool task each, so every deletion core stays busy
  // and each group's BatchDelete fans out further inside the engine.
  // Every victim record already passed the all-nodes CanGloballyDelete
  // vote above; splitting into groups never starts a delete before that
  // consensus, and each group completes its own bookkeeping so no record's
  // cleanup waits on another group's storage latency.
  const size_t group_count =
      std::min(victims.size(), std::max<size_t>(1, options_.maintenance_parallelism));
  const size_t group_size = (victims.size() + group_count - 1) / group_count;
  for (size_t begin = 0; begin < victims.size(); begin += group_size) {
    const size_t end = std::min(victims.size(), begin + group_size);
    std::vector<CommitRecordPtr> group(victims.begin() + begin, victims.begin() + end);
    delete_pool_.Submit([this, group = std::move(group), nodes] {
      std::vector<std::string> victim_keys;
      uint64_t version_count = 0;
      for (const auto& record : group) {
        // A key without a locator lives in its version object. A key with
        // one has a version object only if it was spilled before being
        // rewritten or sent by a failed commit round. A record carrying
        // every payload shows neither on an engine whose rounds write no
        // version objects, so only its record goes; the orphan sweep reaps
        // a rare leftover once the writer leaves known_writers_ (below).
        // Otherwise every key's version goes (deleting a missing object is
        // a no-op).
        const bool versions_may_exist = storage_.CommitUnitsFuseDataWithRecord() ||
                                        record->locators.size() < record->write_set.size();
        if (versions_may_exist) {
          for (const std::string& key : record->write_set) {
            victim_keys.push_back(VersionStorageKey(key, record->id.uuid));
          }
        }
        version_count += record->write_set.size();
        // The record object; in-record payloads go with it.
        victim_keys.push_back(CommitStorageKey(record->id));
      }
      (void)storage_.BatchDelete(victim_keys);
      for (const auto& record : group) {
        commits_.ForgetLocallyDeleted(record->id);
        for (AftNode* node : nodes) {
          node->AcknowledgeGlobalDelete(record->id);
        }
      }
      // Drop deleted writers from the orphan whitelist: if a transient
      // storage error left a straggler version behind, the orphan sweep can
      // now reap it (its commit record is gone, so nothing will ever
      // reference it).
      {
        MutexLock lock(known_writers_mu_);
        for (const auto& record : group) {
          known_writers_.erase(record->id.uuid);
        }
      }
      stats_.txns_deleted.fetch_add(group.size(), std::memory_order_relaxed);
      stats_.versions_deleted.fetch_add(version_count, std::memory_order_relaxed);
    });
  }
  return victims.size();
}

size_t FaultManager::RunOrphanSweepOnce() {
  obs::ScopedHistogramTimer timer(metrics_.orphan_sweep_ms);
  auto version_keys = storage_.List(kVersionPrefix);
  if (!version_keys.ok()) {
    return 0;
  }
  const TimePoint now = clock_.Now();
  // Snapshot the whitelist AND the candidate table under a short lock:
  // holding known_writers_mu_ for the whole sweep would block commit
  // ingestion (and thus gossip). The candidate table was previously read and
  // replaced with no lock at all, racing concurrent sweeps.
  std::unordered_set<Uuid> known;
  std::unordered_map<std::string, TimePoint> candidates;
  {
    MutexLock lock(known_writers_mu_);
    known = known_writers_;
    candidates = orphan_candidates_;
  }
  std::unordered_map<std::string, TimePoint> still_present;
  std::vector<std::string> victims;
  for (const std::string& storage_key : *version_keys) {
    // "v/<key>/<uuid>" — the writer UUID is the final path segment.
    const size_t slash = storage_key.rfind('/');
    if (slash == std::string::npos) {
      continue;
    }
    const Uuid writer = Uuid::Parse(storage_key.substr(slash + 1));
    if (writer.IsNil() || known.contains(writer)) {
      continue;  // Committed (or commit seen at some point): not an orphan.
    }
    auto it = candidates.find(storage_key);
    const TimePoint first_seen = it == candidates.end() ? now : it->second;
    if (now - first_seen >= options_.orphan_grace) {
      victims.push_back(storage_key);
    } else {
      still_present.emplace(storage_key, first_seen);
    }
  }
  {
    MutexLock lock(known_writers_mu_);
    orphan_candidates_ = std::move(still_present);
  }
  if (!victims.empty()) {
    (void)storage_.BatchDelete(victims);
    stats_.orphans_deleted.fetch_add(victims.size(), std::memory_order_relaxed);
  }
  return victims.size();
}

void FaultManager::CheckForFailuresOnce() {
  std::vector<AftNode*> dead;
  {
    MutexLock lock(nodes_mu_);
    for (AftNode* node : managed_nodes_) {
      if (!node->alive() && !handled_failures_.contains(node->node_id())) {
        handled_failures_.insert(node->node_id());
        dead.push_back(node);
      }
    }
  }
  for (AftNode* node : dead) {
    stats_.failures_detected.fetch_add(1, std::memory_order_relaxed);
    AFT_LOG(Info) << "fault manager: node " << node->node_id() << " failed";
    balancer_.RemoveNode(node);
    bus_.UnregisterNode(node);
    if (options_.enable_node_replacement) {
      const std::string failed_id = node->node_id();
      MutexLock lock(replacements_mu_);
      replacement_threads_.emplace_back([this, failed_id] { ReplaceNode(failed_id); });
    }
  }
}

void FaultManager::ReplaceNode(const std::string& failed_id) {
  NodeFactory factory;
  {
    MutexLock lock(nodes_mu_);
    factory = factory_;
  }
  if (!factory) {
    AFT_LOG(Warn) << "fault manager: no node factory; cannot replace " << failed_id;
    return;
  }
  // Declaring the failure takes a few seconds (heartbeat timeouts)...
  if (clock_.WaitFor(stop_, options_.failure_detection_delay)) {
    return;  // Stopped: abandon the replacement.
  }
  AftNode* replacement = factory(failed_id + "-r");
  if (replacement == nullptr) {
    return;
  }
  // ...and the replacement spends ~45s downloading its container before it
  // can bootstrap (§6.7). Standby VMs are assumed pre-allocated, so no EC2
  // spin-up time is charged.
  if (clock_.WaitFor(stop_, options_.container_download_time)) {
    return;  // Stopped mid-download: the replacement never starts.
  }
  if (!replacement->Start().ok()) {
    AFT_LOG(Warn) << "fault manager: replacement for " << failed_id << " failed to start";
    return;
  }
  Manage(replacement);
  bus_.RegisterNode(replacement);
  balancer_.AddNode(replacement);
  stats_.nodes_replaced.fetch_add(1, std::memory_order_relaxed);
  AFT_LOG(Info) << "fault manager: node " << replacement->node_id() << " joined, replacing "
                << failed_id;
}

void FaultManager::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return;
  }
  stop_.store(false);
  thread_ = std::thread([this] { Loop(); });
}

void FaultManager::Stop() {
  // Wakes the loop out of its interval wait, so Stop does not wait one out,
  // and every replacement out of its modelled delays.
  stop_.store(true);
  clock_.Notify();
  if (running_.exchange(false)) {
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  std::vector<std::thread> replacements;
  {
    MutexLock lock(replacements_mu_);
    replacements.swap(replacement_threads_);
  }
  for (auto& t : replacements) {
    if (t.joinable()) {
      t.join();
    }
  }
  delete_pool_.Wait();
}

void FaultManager::Loop() {
  TimePoint last_scan = clock_.Now();
  TimePoint last_gc = last_scan;
  TimePoint last_orphan_sweep = last_scan;
  while (!clock_.WaitFor(stop_, options_.detection_interval)) {
    CheckForFailuresOnce();
    const TimePoint now = clock_.Now();
    if (now - last_gc >= options_.gc_interval) {
      last_gc = now;
      RunGlobalGcOnce();
    }
    if (now - last_scan >= options_.scan_interval) {
      last_scan = now;
      RunLivenessScanOnce();
    }
    if (now - last_orphan_sweep >= options_.orphan_sweep_interval) {
      last_orphan_sweep = now;
      RunOrphanSweepOnce();
    }
  }
}

}  // namespace aft
