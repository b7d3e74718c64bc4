// Exactly-once execution in the face of failures (§3.3.1, §4.2).
//
// Three scenarios on a 2-node deployment:
//   1. A function crashes mid-transaction; the FaaS retry continues the SAME
//      transaction ID and the commit applies exactly once.
//   2. An AFT node crashes AFTER persisting a commit record but BEFORE
//      broadcasting it; the fault manager's commit-set scan surfaces the
//      committed data to the surviving node — an acknowledged commit is
//      never lost.
//   3. An AFT node crashes BETWEEN writing data and writing the commit
//      record; the partial data is never visible anywhere.
//
//   $ ./build/examples/fault_recovery

#include <cstdio>

#include "src/cluster/aft_client.h"
#include "src/cluster/deployment.h"
#include "src/faas/faas_platform.h"
#include "src/storage/sim_dynamo.h"

using namespace aft;

namespace {

std::optional<std::string> ReadOnce(AftNode& node, const std::string& key) {
  auto txid = node.StartTransaction();
  if (!txid.ok()) {
    return std::nullopt;
  }
  auto result = node.Get(*txid, key);
  (void)node.AbortTransaction(*txid);
  return result.ok() ? *result : std::nullopt;
}

}  // namespace

int main() {
  SimClock clock;
  SimDynamo storage(clock);

  // ---- Scenario 1: function crash + retry with the same transaction ID -------
  {
    ClusterOptions options;
    options.num_nodes = 1;
    options.start_background_threads = false;
    ClusterDeployment cluster(storage, clock, options);
    if (!cluster.Start().ok()) {
      return 1;
    }
    AftClient client(cluster.balancer(), clock);
    FaasOptions faas_options;
    faas_options.invocation_overhead = LatencyModel::Zero();
    FaasPlatform faas(clock, faas_options);

    auto session = client.StartTransaction();
    int attempts = 0;
    Status chain = faas.Invoke([&](int attempt) -> Status {
      ++attempts;
      if (attempt > 0) {
        (void)client.Resume(*session);  // Continue the same transaction.
      }
      (void)client.Put(*session, "ledger", "entry-1");
      if (attempt == 0) {
        return Status::Unavailable("simulated crash after the put");
      }
      (void)client.Put(*session, "ledger-index", "1");
      return Status::Ok();
    });
    (void)client.Commit(*session);
    std::printf("scenario 1: function ran %d times, committed once; ledger=%s index=%s\n",
                attempts, ReadOnce(*cluster.node(0), "ledger")->c_str(),
                ReadOnce(*cluster.node(0), "ledger-index")->c_str());
    (void)chain;
    cluster.Stop();
  }

  // ---- Scenario 2: node dies after commit record, before broadcast ------------
  {
    SimDynamo fresh(clock);
    AftNodeOptions node_options;
    node_options.crash_hook = [](CrashPoint point) {
      return point == CrashPoint::kAfterCommitWrite;
    };
    ClusterOptions options;
    options.num_nodes = 2;
    options.start_background_threads = false;
    options.node_options = node_options;
    ClusterDeployment cluster(fresh, clock, options);
    if (!cluster.Start().ok()) {
      return 1;
    }
    auto txid = cluster.node(0)->StartTransaction();
    (void)cluster.node(0)->Put(*txid, "acked", "must-survive");
    Status commit = cluster.node(0)->CommitTransaction(*txid).status();
    std::printf("\nscenario 2: node 0 died during commit ack (%s)\n", commit.ToString().c_str());
    std::printf("            node 1 before fault-manager scan: %s\n",
                ReadOnce(*cluster.node(1), "acked").has_value() ? "visible" : "invisible");
    clock.Advance(std::chrono::seconds(5));  // Past the scan's grace window.
    cluster.fault_manager().RunLivenessScanOnce();
    auto recovered = ReadOnce(*cluster.node(1), "acked");
    std::printf("            node 1 after  fault-manager scan: %s\n",
                recovered.has_value() ? recovered->c_str() : "(LOST!)");
    cluster.Stop();
  }

  // ---- Scenario 3: node dies between data write and commit record -------------
  {
    SimDynamo fresh(clock);
    AftNodeOptions node_options;
    node_options.crash_hook = [](CrashPoint point) {
      return point == CrashPoint::kAfterDataWrite;
    };
    ClusterOptions options;
    options.num_nodes = 2;
    options.start_background_threads = false;
    options.node_options = node_options;
    ClusterDeployment cluster(fresh, clock, options);
    if (!cluster.Start().ok()) {
      return 1;
    }
    auto txid = cluster.node(0)->StartTransaction();
    (void)cluster.node(0)->Put(*txid, "torn", "half-written");
    (void)cluster.node(0)->CommitTransaction(*txid);
    cluster.fault_manager().RunLivenessScanOnce();
    std::printf("\nscenario 3: node 0 died before the commit record was written\n");
    std::printf("            data object in storage: %s; visible to readers: %s\n",
                fresh.List(kVersionPrefix)->empty() ? "no (it rides in the unwritten record)"
                                                    : "yes (orphaned)",
                ReadOnce(*cluster.node(1), "torn").has_value() ? "YES (BUG!)" : "no — atomic");
    cluster.Stop();
  }
  return 0;
}
