// Assembles a complete AFT deployment: N nodes over one shared storage
// engine, the commit multicast bus, the fault manager, and a round-robin
// load balancer — the in-process equivalent of the paper's Kubernetes
// deployment (§4.3, Figure 1).

#ifndef SRC_CLUSTER_DEPLOYMENT_H_
#define SRC_CLUSTER_DEPLOYMENT_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/fault_manager.h"
#include "src/cluster/load_balancer.h"
#include "src/cluster/multicast_bus.h"
#include "src/core/aft_node.h"
#include "src/net/tcp_multicast_bus.h"

namespace aft {

// How records and requests move between the deployment's nodes:
//   * kInProc — direct method calls on the shared heap (the original mode);
//   * kTcp   — every node behind its own loopback AftServiceServer, commit
//     multicast shipped as framed ApplyCommits RPCs (src/net). The same
//     protocol logic runs in both; kTcp proves it survives a real socket.
enum class ClusterTransport {
  kInProc,
  kTcp,
};

struct ClusterOptions {
  size_t num_nodes = 1;
  AftNodeOptions node_options;
  Duration multicast_interval = Millis(1000);
  FaultManagerOptions fault_manager;
  ClusterTransport transport = ClusterTransport::kInProc;
  // kTcp only: transport knobs for the per-node service servers and the
  // gossip RPCs (threading model, timeouts, backpressure).
  net::TcpMulticastBusOptions tcp_options;
  // The one switch for every §4/§5 loop: when true, Start() runs the gossip
  // bus, the fault manager (liveness scan, global GC, orphan sweep, failure
  // detection) and each node's local GC and timeout sweep, replacement
  // nodes included, and Stop() stops them all. Tests that drive rounds
  // manually turn it off. node_options.enable_background_threads is ignored.
  bool start_background_threads = true;
};

class ClusterDeployment {
 public:
  ClusterDeployment(StorageEngine& storage, Clock& clock, ClusterOptions options = {});
  ~ClusterDeployment();

  ClusterDeployment(const ClusterDeployment&) = delete;
  ClusterDeployment& operator=(const ClusterDeployment&) = delete;

  // Boots all nodes (bootstrap from the commit set) and background services.
  Status Start();
  // Stops every background loop Start() began; the nodes stay up.
  void Stop();

  // Simulates the failure of node `index` (§6.7).
  void KillNode(size_t index);

  LoadBalancer& balancer() { return balancer_; }
  MulticastBus& bus() { return *bus_; }
  FaultManager& fault_manager() { return fault_manager_; }
  Clock& clock() { return clock_; }
  StorageEngine& storage() { return storage_; }
  ClusterTransport transport() const { return options_.transport; }

  // kTcp only: the loopback service endpoints of all nodes, in node order —
  // what a RemoteAftClient connects to. Empty in kInProc mode.
  std::vector<net::NetEndpoint> ServiceEndpoints() const;

  AftNode* node(size_t index);
  size_t node_count() const;

 private:
  AftNode* CreateNode(const std::string& node_id);
  // Start's per-node step: creates and boots the next numbered node, then
  // hands it to the bus, the fault manager and the balancer.
  AftNode* AddNode();

  StorageEngine& storage_;
  Clock& clock_;
  const ClusterOptions options_;

  LoadBalancer balancer_;
  // Constructed before fault_manager_ (which keeps a reference).
  std::unique_ptr<MulticastBus> bus_;
  FaultManager fault_manager_;

  mutable Mutex nodes_mu_;
  std::vector<std::unique_ptr<AftNode>> nodes_ GUARDED_BY(nodes_mu_);
  size_t next_node_number_ GUARDED_BY(nodes_mu_) = 0;
  // Stop() can race Start() (destructor vs. a starting thread); atomic so
  // the started flag itself is never a data race.
  std::atomic<bool> started_{false};
};

}  // namespace aft

#endif  // SRC_CLUSTER_DEPLOYMENT_H_
