// Simulated AWS S3: a flat-namespace object store.
//
// Behavioural model (what the paper's evaluation depends on, §6.1.2):
//  * high median latency and a heavy right tail, especially for small-object
//    writes ("S3 is a throughput-oriented object store that has high write
//    latency variance, particularly for small objects");
//  * 4-10x slower than DynamoDB / Redis for this workload;
//  * no batch-write API — every object PUT is its own request;
//  * read-after-write consistency for new-key PUTs, eventual consistency for
//    overwrites (2020-era semantics — the paper predates S3's strong
//    consistency launch of Dec 2020).

#ifndef SRC_STORAGE_SIM_S3_H_
#define SRC_STORAGE_SIM_S3_H_

#include <string>

#include "src/storage/sim_engine_base.h"

namespace aft {

struct SimS3Options {
  // Default latency profile, in simulated milliseconds. Medians/skews chosen
  // so the Plain-vs-AFT ratios of Figure 3 reproduce.
  EngineLatencyProfile profile = {
      /*get=*/LatencyModel(22.0, 0.5, 6.0, 0.03),
      /*put=*/LatencyModel(32.0, 0.8, 10.0, 0.05),
      /*erase=*/LatencyModel(18.0, 0.5, 6.0),
      /*list=*/LatencyModel(40.0, 0.5, 12.0),
      /*batch_base=*/LatencyModel::Zero(),   // No batch API.
      /*batch_per_item=*/LatencyModel::Zero(),
  };
  StalenessModel staleness = {/*stale_probability=*/0.45, /*mean_staleness=*/Millis(80)};
  size_t map_shards = 16;
};

class SimS3 final : public SimEngineBase {
 public:
  explicit SimS3(Clock& clock, SimS3Options options = {})
      : SimEngineBase("s3", clock, options.profile, options.staleness, options.map_shards) {}

  size_t MaxBatchSize() const override { return 1; }
  double client_cpu_factor() const override { return 1.6; }  // HTTPS + XML.
};

}  // namespace aft

#endif  // SRC_STORAGE_SIM_S3_H_
