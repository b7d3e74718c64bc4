#include "src/cluster/autoscaler.h"

#include <algorithm>
#include <cmath>

#include "src/common/logging.h"

namespace aft {

size_t ThresholdPolicy::DesiredNodes(const Observation& observation) {
  if (observation.live_nodes == 0) {
    return 1;
  }
  const double capacity =
      options_.per_node_capacity_tps * static_cast<double>(observation.live_nodes);
  const double utilization = capacity > 0 ? observation.aggregate_tps / capacity : 0;
  if (utilization > options_.scale_up_fraction) {
    // Size the fleet so that it would run at the scale-up threshold.
    return static_cast<size_t>(std::ceil(observation.aggregate_tps /
                                         (options_.per_node_capacity_tps *
                                          options_.scale_up_fraction)));
  }
  if (utilization < options_.scale_down_fraction && observation.live_nodes > 1) {
    return observation.live_nodes - 1;
  }
  return observation.live_nodes;
}

Autoscaler::Autoscaler(ClusterDeployment& cluster, Clock& clock,
                       std::unique_ptr<AutoscalingPolicy> policy, AutoscalerOptions options)
    : cluster_(cluster), clock_(clock), policy_(std::move(policy)), options_(options) {}

Autoscaler::~Autoscaler() { Stop(); }

uint64_t Autoscaler::TotalCommitted() const {
  uint64_t total = 0;
  for (AftNode* node : cluster_.balancer().LiveNodes()) {
    total += node->stats().txns_committed.load(std::memory_order_relaxed);
  }
  return total;
}

int Autoscaler::RunOnce() {
  stats_.evaluations.fetch_add(1, std::memory_order_relaxed);
  const TimePoint now = clock_.Now();
  const uint64_t committed = TotalCommitted();
  if (!primed_) {
    // First call only establishes the measurement baseline.
    primed_ = true;
    last_eval_ = now;
    last_committed_ = committed;
    return 0;
  }
  const double elapsed_sec = ToMillis(now - last_eval_) / 1000.0;
  if (elapsed_sec <= 0) {
    return 0;
  }
  AutoscalingPolicy::Observation observation;
  observation.live_nodes = cluster_.balancer().LiveNodes().size();
  observation.aggregate_tps =
      static_cast<double>(committed - last_committed_) / elapsed_sec;
  observation.per_node_tps = observation.live_nodes > 0
                                 ? observation.aggregate_tps /
                                       static_cast<double>(observation.live_nodes)
                                 : 0;
  last_eval_ = now;
  last_committed_ = committed;

  size_t desired = policy_->DesiredNodes(observation);
  desired = std::clamp(desired, options_.min_nodes, options_.max_nodes);
  if (desired == observation.live_nodes) {
    return 0;
  }
  if (last_action_.count() != 0 && now - last_action_ < options_.cooldown) {
    return 0;  // Hysteresis: at most one scaling action per cooldown window.
  }
  last_action_ = now;
  if (desired > observation.live_nodes) {
    AFT_LOG(Info) << "autoscaler: scaling up (" << observation.live_nodes << " -> "
                  << observation.live_nodes + 1 << ", " << observation.aggregate_tps
                  << " txn/s)";
    stats_.scale_ups.fetch_add(1, std::memory_order_relaxed);
    return cluster_.AddNode() != nullptr ? 1 : 0;
  }
  AFT_LOG(Info) << "autoscaler: scaling down (" << observation.live_nodes << " -> "
                << observation.live_nodes - 1 << ", " << observation.aggregate_tps
                << " txn/s)";
  stats_.scale_downs.fetch_add(1, std::memory_order_relaxed);
  DecommissionOneNode();
  return -1;
}

void Autoscaler::DecommissionOneNode() {
  const std::vector<AftNode*> live = cluster_.balancer().LiveNodes();
  if (live.size() <= options_.min_nodes) {
    return;
  }
  AftNode* victim = live.back();
  // 1. Stop routing NEW transactions to the node; running ones finish.
  cluster_.balancer().RemoveNode(victim);
  // 2. Planned removal: the fault manager must not replace it.
  cluster_.fault_manager().Decommission(victim);
  // 3. Drain: wait (bounded) for in-flight transactions to complete.
  const TimePoint deadline = clock_.Now() + options_.drain_timeout;
  while (victim->RunningTransactionCount() > 0 && clock_.Now() < deadline) {
    clock_.SleepFor(Millis(50));
  }
  // 4. Final gossip so no committed record is stranded, then retire.
  cluster_.bus().RunOnce();
  cluster_.bus().UnregisterNode(victim);
  victim->Kill();
}

void Autoscaler::Start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) {
    return;
  }
  stop_.store(false);
  thread_ = std::thread([this] {
    while (!clock_.WaitFor(stop_, options_.evaluate_interval)) {
      RunOnce();
    }
  });
}

void Autoscaler::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  // Wakes the loop out of its interval wait.
  stop_.store(true);
  clock_.Notify();
  if (thread_.joinable()) {
    thread_.join();
  }
}

}  // namespace aft
