// Autoscaling for AFT deployments.
//
// The paper deliberately leaves the scaling POLICY pluggable and out of
// scope ("That policy is pluggable in aft", §4.3; revisited as future work
// in §8) while the MECHANISM — adding and removing fungible nodes without
// coordination — is what the protocols enable. This module provides both:
//
//  * `AutoscalingPolicy` — the pluggable decision function; given the
//    observed load it returns the desired node count.
//  * `ThresholdPolicy` — a simple default: scale up when aggregate
//    throughput exceeds `scale_up_fraction` of the fleet's capacity, down
//    when below `scale_down_fraction`, with hysteresis via a cooldown.
//  * `Autoscaler` — the mechanism: samples committed-transaction counters,
//    consults the policy, adds nodes through the deployment, and
//    decommissions nodes gracefully (deregister from the balancer, wait for
//    in-flight transactions to drain, final gossip, then retire — planned
//    removals never trigger the fault manager's replacement path).

#ifndef SRC_CLUSTER_AUTOSCALER_H_
#define SRC_CLUSTER_AUTOSCALER_H_

#include <atomic>
#include <memory>
#include <thread>

#include "src/cluster/deployment.h"

namespace aft {

class AutoscalingPolicy {
 public:
  virtual ~AutoscalingPolicy() = default;

  struct Observation {
    size_t live_nodes = 0;
    double aggregate_tps = 0;   // Committed transactions per simulated second.
    double per_node_tps = 0;    // aggregate / live_nodes.
  };

  // Desired number of live nodes (the autoscaler clamps and rate-limits).
  virtual size_t DesiredNodes(const Observation& observation) = 0;
};

struct ThresholdPolicyOptions {
  // Estimated single-node capacity (txn/s) — e.g. from Figure 7.
  double per_node_capacity_tps = 550;
  double scale_up_fraction = 0.75;
  double scale_down_fraction = 0.30;
};

class ThresholdPolicy final : public AutoscalingPolicy {
 public:
  explicit ThresholdPolicy(ThresholdPolicyOptions options = {}) : options_(options) {}
  size_t DesiredNodes(const Observation& observation) override;

 private:
  const ThresholdPolicyOptions options_;
};

struct AutoscalerOptions {
  Duration evaluate_interval = std::chrono::seconds(5);
  Duration cooldown = std::chrono::seconds(15);
  size_t min_nodes = 1;
  size_t max_nodes = 16;
  // How long a decommissioned node may take to drain before being retired
  // regardless (its clients fail over like on a crash).
  Duration drain_timeout = std::chrono::seconds(10);
};

struct AutoscalerStats {
  std::atomic<uint64_t> evaluations{0};
  std::atomic<uint64_t> scale_ups{0};
  std::atomic<uint64_t> scale_downs{0};
};

class Autoscaler {
 public:
  Autoscaler(ClusterDeployment& cluster, Clock& clock, std::unique_ptr<AutoscalingPolicy> policy,
             AutoscalerOptions options = {});
  ~Autoscaler();

  Autoscaler(const Autoscaler&) = delete;
  Autoscaler& operator=(const Autoscaler&) = delete;

  // One evaluation: sample throughput since the last call, consult the
  // policy, apply at most one scaling action. Returns the delta in node
  // count (-1, 0 or +1).
  int RunOnce();

  void Start();
  void Stop();

  const AutoscalerStats& stats() const { return stats_; }

 private:
  uint64_t TotalCommitted() const;
  void DecommissionOneNode();

  ClusterDeployment& cluster_;
  Clock& clock_;
  std::unique_ptr<AutoscalingPolicy> policy_;
  const AutoscalerOptions options_;

  TimePoint last_eval_{};
  uint64_t last_committed_ = 0;
  TimePoint last_action_{};
  bool primed_ = false;

  std::atomic<bool> running_{false};
  // Set by Stop; the loop waits on it between evaluations.
  std::atomic<bool> stop_{false};
  std::thread thread_;
  AutoscalerStats stats_;
};

}  // namespace aft

#endif  // SRC_CLUSTER_AUTOSCALER_H_
