// Commit-set multicast between AFT nodes (§4).
//
// Every `interval` (1 second in the paper), each node's recently committed
// transactions are gathered and broadcast to all peers, pruned of locally
// superseded transactions (§4.1). The *unpruned* stream is forwarded to the
// fault manager (§4.2). Message and record counters let the ablation bench
// quantify the pruning optimization.
//
// `MulticastBus` is the transport-neutral interface: the fault manager and
// cluster tests drive gossip through it without caring how records move.
// Two implementations exist:
//   * `InProcMulticastBus` (below) — direct method calls, the original
//     in-process stand-in;
//   * `TcpMulticastBus` (src/net/tcp_multicast_bus.h) — real loopback TCP:
//     records are framed, checksummed, and applied by each peer's service
//     endpoint, so the protocol survives an actual socket boundary.

#ifndef SRC_CLUSTER_MULTICAST_BUS_H_
#define SRC_CLUSTER_MULTICAST_BUS_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/mutex.h"
#include "src/core/aft_node.h"
#include "src/obs/health.h"

namespace aft {

struct MulticastStats {
  std::atomic<uint64_t> rounds{0};
  std::atomic<uint64_t> records_broadcast{0};
  std::atomic<uint64_t> records_pruned{0};
  std::atomic<uint64_t> records_to_fault_manager{0};
  // Broadcast deliveries that failed in the transport (always 0 in-process;
  // over TCP: peer connection refused/reset mid-gossip). Undelivered records
  // are NOT retried by the bus — the fault manager's storage scan is the
  // recovery path for anything gossip loses (§4.2).
  std::atomic<uint64_t> delivery_errors{0};
};

// Transport-neutral gossip interface. Implementations own the membership
// list; `Start`/`Stop` drive the shared background loop (one thread, one
// `RunOnce` per `interval`), with `Stop` performing a final drain so no
// committed record is stranded in a node's pending list.
// Base methods are defined inline so transport implementations in other
// libraries (src/net) depend only on this header, not on aft_cluster.
class MulticastBus {
 public:
  using FaultManagerSink = std::function<void(const std::vector<CommitRecordPtr>&)>;

  MulticastBus(Clock& clock, Duration interval) : clock_(clock), interval_(interval) {}

  virtual ~MulticastBus() {
    // Concrete destructors are required to have called Stop() already (the
    // final drain needs their RunOnce). If one forgot, still join the
    // thread — without the drain — so we never destruct with a live loop.
    if (running_.exchange(false)) {
      StopThread();
    }
  }

  MulticastBus(const MulticastBus&) = delete;
  MulticastBus& operator=(const MulticastBus&) = delete;

  virtual void RegisterNode(AftNode* node) = 0;
  virtual void UnregisterNode(AftNode* node) = 0;

  // Receives every committed transaction WITHOUT pruning (§4.2).
  virtual void SetFaultManagerSink(FaultManagerSink sink) = 0;

  // One gossip round: drain every node, forward unpruned records to the
  // fault manager, deliver pruned records to all *other* nodes.
  virtual void RunOnce() = 0;

  // Disables supersedence pruning (ablation bench).
  void set_pruning_enabled(bool enabled) { pruning_enabled_.store(enabled); }

  // Background driver. Concrete destructors MUST call Stop() before their
  // members are torn down (the loop calls the virtual RunOnce).
  void Start() {
    bool expected = false;
    if (!running_.compare_exchange_strong(expected, true)) {
      return;
    }
    stop_.store(false);
    thread_ = std::thread([this] { Loop(); });
    // /readyz gossip_live: live exactly while the background driver runs.
    // Released in Stop, so a bus that was never started (or a test driving
    // RunOnce by hand) contributes no check.
    gossip_ready_ = obs::RegisterReadyCheck("gossip_live", [this] {
      return std::make_pair(
          running_.load(std::memory_order_acquire),
          "rounds=" + std::to_string(stats_.rounds.load(std::memory_order_relaxed)));
    });
  }

  void Stop() {
    gossip_ready_.Release();
    if (!running_.exchange(false)) {
      return;
    }
    StopThread();
    // Final drain so no committed record is stranded in a node's pending list.
    RunOnce();
  }

  const MulticastStats& stats() const { return stats_; }

 protected:
  bool pruning_enabled() const { return pruning_enabled_.load(); }

  Clock& clock_;
  const Duration interval_;
  MulticastStats stats_;

 private:
  void Loop() {
    while (!clock_.WaitFor(stop_, interval_)) {
      RunOnce();
    }
  }

  // Wakes the loop out of its clock wait, so stopping never waits out an
  // interval, and joins it.
  void StopThread() {
    stop_.store(true);
    clock_.Notify();
    if (thread_.joinable()) {
      thread_.join();
    }
  }

  std::atomic<bool> pruning_enabled_{true};
  std::atomic<bool> running_{false};
  obs::ScopedReadyCheck gossip_ready_;
  std::thread thread_;
  // Set by Stop; the loop waits on it through the clock.
  std::atomic<bool> stop_{false};
};

// The original in-process implementation: peers exchange records by direct
// method call on the shared heap.
class InProcMulticastBus : public MulticastBus {
 public:
  explicit InProcMulticastBus(Clock& clock, Duration interval = Millis(1000));
  ~InProcMulticastBus() override;

  void RegisterNode(AftNode* node) override;
  void UnregisterNode(AftNode* node) override;
  void SetFaultManagerSink(FaultManagerSink sink) override;
  void RunOnce() override;

 private:
  Mutex mu_;
  std::vector<AftNode*> nodes_ GUARDED_BY(mu_);
  FaultManagerSink fault_manager_sink_ GUARDED_BY(mu_);
};

}  // namespace aft

#endif  // SRC_CLUSTER_MULTICAST_BUS_H_
