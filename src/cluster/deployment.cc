#include "src/cluster/deployment.h"

namespace aft {

namespace {

std::unique_ptr<MulticastBus> MakeBus(ClusterTransport transport, Clock& clock,
                                      Duration interval,
                                      const net::TcpMulticastBusOptions& tcp_options) {
  if (transport == ClusterTransport::kTcp) {
    return std::make_unique<net::TcpMulticastBus>(clock, interval, tcp_options);
  }
  return std::make_unique<InProcMulticastBus>(clock, interval);
}

}  // namespace

ClusterDeployment::ClusterDeployment(StorageEngine& storage, Clock& clock, ClusterOptions options)
    : storage_(storage),
      clock_(clock),
      options_(std::move(options)),
      bus_(MakeBus(options_.transport, clock, options_.multicast_interval,
                   options_.tcp_options)),
      fault_manager_(clock, storage, balancer_, *bus_, options_.fault_manager) {
  fault_manager_.SetNodeFactory([this](const std::string& node_id) { return CreateNode(node_id); });
}

ClusterDeployment::~ClusterDeployment() { Stop(); }

AftNode* ClusterDeployment::CreateNode(const std::string& node_id) {
  AftNodeOptions node_options = options_.node_options;
  node_options.enable_background_threads = options_.start_background_threads;
  MutexLock lock(nodes_mu_);
  nodes_.push_back(std::make_unique<AftNode>(node_id, storage_, clock_, std::move(node_options)));
  return nodes_.back().get();
}

Status ClusterDeployment::Start() {
  for (size_t i = 0; i < options_.num_nodes; ++i) {
    AftNode* node = AddNode();
    if (node == nullptr) {
      return Status::Internal("failed to create node");
    }
  }
  started_.store(true, std::memory_order_release);
  if (options_.start_background_threads) {
    bus_->Start();
    fault_manager_.Start();
  }
  return Status::Ok();
}

AftNode* ClusterDeployment::AddNode() {
  std::string node_id;
  {
    MutexLock lock(nodes_mu_);
    node_id = "aft-" + std::to_string(next_node_number_++);
  }
  AftNode* node = CreateNode(node_id);
  if (!node->Start().ok()) {
    return nullptr;
  }
  bus_->RegisterNode(node);
  fault_manager_.Manage(node);
  balancer_.AddNode(node);
  return node;
}

void ClusterDeployment::KillNode(size_t index) {
  AftNode* victim = node(index);
  if (victim != nullptr) {
    victim->Kill();
  }
}

void ClusterDeployment::Stop() {
  if (!started_.exchange(false)) {
    return;
  }
  fault_manager_.Stop();
  bus_->Stop();
  // Nodes are never removed, and with the fault manager stopped none is
  // being added.
  for (size_t i = 0; i < node_count(); ++i) {
    node(i)->StopBackground();
  }
}

std::vector<net::NetEndpoint> ClusterDeployment::ServiceEndpoints() const {
  if (options_.transport != ClusterTransport::kTcp) {
    return {};
  }
  return static_cast<const net::TcpMulticastBus&>(*bus_).Endpoints();
}

AftNode* ClusterDeployment::node(size_t index) {
  MutexLock lock(nodes_mu_);
  if (index >= nodes_.size()) {
    return nullptr;
  }
  return nodes_[index].get();
}

size_t ClusterDeployment::node_count() const {
  MutexLock lock(nodes_mu_);
  return nodes_.size();
}

}  // namespace aft
