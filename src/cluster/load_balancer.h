// Stateless round-robin load balancer (§6: "a simple stateless load balancer
// ... to route requests to aft nodes in a round-robin fashion").
//
// A transaction is routed to one node at StartTransaction and stays there
// for its lifetime (§3.1: "Each transaction sends all operations to a single
// aft node"); the balancer only chooses the node for each *new* transaction.

#ifndef SRC_CLUSTER_LOAD_BALANCER_H_
#define SRC_CLUSTER_LOAD_BALANCER_H_

#include <atomic>
#include <vector>

#include "src/common/mutex.h"
#include "src/core/aft_node.h"

namespace aft {

class LoadBalancer {
 public:
  LoadBalancer() = default;

  void AddNode(AftNode* node);
  void RemoveNode(AftNode* node);

  // The next live node in round-robin order; nullptr when none are live.
  AftNode* Pick();

 private:
  mutable SharedMutex mu_;
  std::vector<AftNode*> nodes_ GUARDED_BY(mu_);
  std::atomic<uint64_t> next_{0};
};

}  // namespace aft

#endif  // SRC_CLUSTER_LOAD_BALANCER_H_
