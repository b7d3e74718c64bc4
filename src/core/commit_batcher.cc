#include "src/core/commit_batcher.h"

#include <chrono>
#include <utility>

#include "src/common/contention.h"
#include "src/common/histogram.h"

namespace aft {

namespace {

using StageClock = std::chrono::steady_clock;

uint64_t StageNowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   StageClock::now().time_since_epoch())
                                   .count());
}

uint64_t NsOf(StageClock::time_point tp) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count());
}

// 10 µs .. ~10 s in doubling buckets — spans a WAL fsync (~ms) and a
// simulated cloud round-trip (~tens of ms) with headroom for stragglers.
std::vector<double> StageBoundaries() { return ExponentialBoundaries(1e-5, 2.0, 21); }

}  // namespace

CommitStageHistograms CommitStageHistograms::ForNode(const std::string& node_id) {
  auto& reg = obs::MetricsRegistry::Global();
  auto stage = [&](const char* stage_name, const char* help) {
    return reg.GetHistogram("aft_commit_stage_seconds", help, StageBoundaries(),
                            {{"node", node_id}, {"stage", stage_name}});
  };
  CommitStageHistograms h;
  h.txn_lock_wait = stage("txn_lock_wait", "Commit stage: transaction lock wait");
  h.queue_wait_leader = stage("queue_wait_leader", "Commit stage: batcher queue wait (led)");
  h.queue_wait_follower =
      stage("queue_wait_follower", "Commit stage: batcher queue wait (piggybacked)");
  h.data_flush = stage("data_flush", "Commit stage: data-version flush");
  h.barrier = stage("barrier", "Commit stage: write-ordering barrier wait");
  h.record_write = stage("record_write", "Commit stage: commit-record write");
  h.gossip_publish = stage("gossip_publish", "Commit stage: staging for gossip broadcast");
  return h;
}

CommitBatcher::CommitBatcher(const std::string& node_id, StorageEngine& storage,
                             RoundPublisher publisher)
    : node_id_(node_id), storage_(storage), publisher_(std::move(publisher)) {
  auto& reg = obs::MetricsRegistry::Global();
  const obs::MetricLabels labels = {{"node", node_id}};
  batch_size_ = reg.GetHistogram("aft_commit_batch_size", "Transactions fused per commit round",
                                 ExponentialBoundaries(1, 2, 8), labels);
  rounds_ = reg.GetCounter("aft_commit_batch_rounds_total", "Batched commit rounds executed",
                           labels);
  leader_commits_ = reg.GetCounter("aft_commit_batch_commits_total",
                                   "Commits by batch role (leader ran the round)",
                                   {{"node", node_id}, {"role", "leader"}});
  follower_commits_ = reg.GetCounter("aft_commit_batch_commits_total",
                                     "Commits by batch role (follower piggybacked)",
                                     {{"node", node_id}, {"role", "follower"}});
  stages_ = CommitStageHistograms::ForNode(node_id);
}

Status CommitBatcher::Commit(Pending& pending) {
  Pending* solo = &pending;
  if (!storage_.CommitUnitsFuseDataWithRecord()) {
    // Nothing for a merged round to share: run this commit's round now,
    // concurrently with any others, without the latch.
    ExecuteRound(std::span<Pending* const>(&solo, 1), solo);
    leader_commits_->Increment();
    return std::move(pending.result);
  }
  const bool attrib = contention::StageTimingEnabled();
  MutexLock lock(mu_);
  if (!round_in_flight_ && queue_.empty()) {
    // Solo fast path: nobody to piggyback on and nobody ahead. Run the
    // round alone without touching the queue — with CommitUnits' n==1
    // degeneration a single writer pays nothing for batching.
    round_in_flight_ = true;
    lock.Unlock();
    ExecuteRound(std::span<Pending* const>(&solo, 1), solo);
    lock.Lock();
    round_in_flight_ = false;
    cv_.NotifyAll();
    leader_commits_->Increment();
    return std::move(pending.result);
  }

  // Queue wait opens here, not before the lock: the solo fast path above
  // never reads the clock for it (its wait is definitionally zero), and the
  // mutex acquire itself is already covered by the sampled lock profiler.
  if (attrib) {
    pending.enqueued_ns = StageNowNs();
  }
  queue_.push_back(&pending);
  bool led = false;
  // The drain loop: the first waiter to observe the latch free becomes the
  // next round's leader and drains the WHOLE queue — the batch formed
  // adaptively while the previous round was in flight.
  // aftlint: hot
  while (!pending.done) {
    if (round_in_flight_) {
      cv_.Wait(lock);
      continue;
    }
    round_in_flight_ = true;
    SmallVector<Pending*, 16> members(std::move(queue_));
    lock.Unlock();
    ExecuteRound(std::span<Pending* const>(members.data(), members.size()), &pending);
    lock.Lock();
    for (Pending* member : members) {
      member->done = true;
    }
    round_in_flight_ = false;
    cv_.NotifyAll();
    led = true;
  }
  (led ? leader_commits_ : follower_commits_)->Increment();
  return std::move(pending.result);
}

void CommitBatcher::RecordRoundSpans(std::span<Pending* const> members, uint64_t start_us,
                                     uint64_t end_us) const {
  for (const Pending* member : members) {
    if (!member->trace.sampled()) {
      continue;
    }
    for (const char* name : {"CommitFlush", "CommitRecordWrite"}) {
      obs::TraceEvent event;
      event.trace_id = member->trace.trace_id;
      event.name = name;
      event.node = node_id_;
      event.start_us = start_us;
      event.dur_us = end_us - start_us;
      obs::Tracer::Global().Record(std::move(event));
    }
  }
}

void CommitBatcher::ExecuteRound(std::span<Pending* const> members, const Pending* leader) {
  rounds_->Increment();
  batch_size_->Observe(static_cast<double>(members.size()));
  const bool attrib = contention::StageTimingEnabled();
  bool sampled = false;
  for (const Pending* member : members) {
    sampled = sampled || member->trace.sampled();
  }
  const uint64_t span_start = sampled ? obs::Tracer::NowMicros() : 0;
  const uint64_t round_start_ns = attrib ? StageNowNs() : 0;
  if (attrib) {
    // Queue wait ends when the round starts executing. EVERY member of the
    // round — leader included — observes its own wait, labeled by role. A
    // solo leader never enqueued (enqueued_ns stays 0): its wait is zero.
    for (const Pending* member : members) {
      const double wait_s =
          member->enqueued_ns == 0
              ? 0.0
              : static_cast<double>(round_start_ns - member->enqueued_ns) * 1e-9;
      (member == leader ? stages_.queue_wait_leader : stages_.queue_wait_follower)
          ->Observe(wait_s);
    }
  }

  CommitStageProfile profile;
  CommitStageProfile* profile_ptr = attrib ? &profile : nullptr;
  if (attrib) {
    // Shared boundary: the round start doubles as the engine's flush start,
    // and the engine's last reading (profile.end) doubles as publish start.
    profile.start = StageClock::time_point(std::chrono::nanoseconds(round_start_ns));
  }
  SmallVector<CommitUnit, 16> units;
  SmallVector<Status, 16> results;
  units.reserve(members.size());
  results.reserve(members.size());
  // aftlint: hot
  for (Pending* member : members) {
    units.push_back(std::move(member->unit));
    results.push_back(Status());
  }
  storage_.CommitUnits(std::span<CommitUnit>(units.data(), units.size()),
                       std::span<Status>(results.data(), results.size()), profile_ptr);
  if (sampled) {
    RecordRoundSpans(members, span_start, obs::Tracer::NowMicros());
  }
  SmallVector<Pending*, 16> committed;
  committed.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    members[i]->result = std::move(results[i]);
    if (members[i]->result.ok()) {
      committed.push_back(members[i]);
    }
  }
  double publish_s = 0;
  if (publisher_ && !committed.empty()) {
    const uint64_t publish_start_ns =
        !attrib ? 0
        : profile.end != StageClock::time_point{} ? NsOf(profile.end)
                                                  : StageNowNs();
    publisher_(std::span<Pending* const>(committed.data(), committed.size()));
    if (attrib) {
      publish_s = static_cast<double>(StageNowNs() - publish_start_ns) * 1e-9;
    }
  }
  if (attrib) {
    ObserveRoundStages(members, profile, publish_s, round_start_ns, span_start);
  }
}

void CommitBatcher::ObserveRoundStages(std::span<Pending* const> members,
                                       const CommitStageProfile& profile, double publish_s,
                                       uint64_t round_start_ns, uint64_t span_start_us) const {
  // Every member observes the round's stage durations: each member's
  // end-to-end commit wall time contains the FULL round (followers park for
  // all of it), so charging the round to every member is what makes the
  // per-member stage sum reconcile with aft_node_commit_latency_ms.
  for (const Pending* member : members) {
    stages_.data_flush->Observe(profile.data_flush_s);
    stages_.barrier->Observe(profile.barrier_s);
    stages_.record_write->Observe(profile.record_write_s);
    stages_.gossip_publish->Observe(publish_s);
    if (member->trace.sampled()) {
      // Child spans laid out sequentially from round start by measured
      // duration — an approximation of in-stage timestamps (the stages of a
      // fused WAL round are not separately clocked per member), documented
      // in docs/OBSERVABILITY.md.
      const uint64_t queue_us =
          member->enqueued_ns == 0 ? 0 : (round_start_ns - member->enqueued_ns) / 1000;
      const uint64_t flush_us = static_cast<uint64_t>(profile.data_flush_s * 1e6);
      const uint64_t barrier_us = static_cast<uint64_t>(profile.barrier_s * 1e6);
      const uint64_t record_us = static_cast<uint64_t>(profile.record_write_s * 1e6);
      const uint64_t publish_us = static_cast<uint64_t>(publish_s * 1e6);
      struct StageSpan {
        const char* name;
        uint64_t start_us;
        uint64_t dur_us;
      };
      const StageSpan spans[] = {
          {"StageQueueWait", span_start_us > queue_us ? span_start_us - queue_us : 0, queue_us},
          {"StageDataFlush", span_start_us, flush_us},
          {"StageBarrier", span_start_us + flush_us, barrier_us},
          {"StageRecordWrite", span_start_us + flush_us + barrier_us, record_us},
          {"StageGossipPublish", span_start_us + flush_us + barrier_us + record_us, publish_us},
      };
      for (const StageSpan& s : spans) {
        obs::TraceEvent event;
        event.trace_id = member->trace.trace_id;
        event.name = s.name;
        event.node = node_id_;
        event.start_us = s.start_us;
        event.dur_us = s.dur_us;
        obs::Tracer::Global().Record(std::move(event));
      }
    }
  }
}

}  // namespace aft
