#include "src/cluster/load_balancer.h"

#include <algorithm>

namespace aft {

void LoadBalancer::AddNode(AftNode* node) {
  WriterMutexLock lock(mu_);
  if (std::find(nodes_.begin(), nodes_.end(), node) == nodes_.end()) {
    nodes_.push_back(node);
  }
}

void LoadBalancer::RemoveNode(AftNode* node) {
  WriterMutexLock lock(mu_);
  nodes_.erase(std::remove(nodes_.begin(), nodes_.end(), node), nodes_.end());
}

AftNode* LoadBalancer::Pick() {
  ReaderMutexLock lock(mu_);
  if (nodes_.empty()) {
    return nullptr;
  }
  // Skip dead nodes that have not been deregistered yet.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    AftNode* node = nodes_[next_.fetch_add(1, std::memory_order_relaxed) % nodes_.size()];
    if (node->alive()) {
      return node;
    }
  }
  return nullptr;
}

}  // namespace aft
