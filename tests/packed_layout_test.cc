// Tests for the packed (log-structured) data layout — the §8 "Efficient
// Data Layout" extension: one segment object per commit, locators in the
// commit record, ranged reads.

#include <gtest/gtest.h>

#include "src/cluster/deployment.h"
#include "src/storage/sim_dynamo.h"
#include "src/storage/sim_s3.h"
#include "tests/await_storage.h"

namespace aft {
namespace {

SimS3Options InstantS3() {
  SimS3Options options;
  options.profile = EngineLatencyProfile{LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero(),
                                         LatencyModel::Zero(), LatencyModel::Zero()};
  options.staleness = StalenessModel{};
  return options;
}

AftNodeOptions PackedOptions() {
  AftNodeOptions options;
  options.packed_layout = true;
  options.service_cores = 0;
  return options;
}

class PackedLayoutTest : public ::testing::Test {
 protected:
  PackedLayoutTest() : storage_(clock_, InstantS3()) {}

  std::unique_ptr<AftNode> MakeNode(const std::string& id, AftNodeOptions options) {
    auto node = std::make_unique<AftNode>(id, storage_, clock_, options);
    EXPECT_TRUE(node->Start().ok());
    return node;
  }

  SimClock clock_;
  SimS3 storage_;
};

TEST_F(PackedLayoutTest, CommitWritesOneSegmentNotPerKeyObjects) {
  auto node = MakeNode("n0", PackedOptions());
  auto txid = node->StartTransaction();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(node->Put(*txid, "k" + std::to_string(i), "value" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(node->CommitTransaction(*txid).ok());
  EXPECT_EQ(storage_.List(kSegmentPrefix)->size(), 1u);
  EXPECT_TRUE(storage_.List(kVersionPrefix)->empty());
  // 1 segment PUT + 1 commit record PUT (vs 5+1 in the per-key layout).
  EXPECT_EQ(storage_.counters().puts.load(), 2u);
}

TEST_F(PackedLayoutTest, ReadsSliceTheSegmentByLocator) {
  auto node = MakeNode("n0", PackedOptions());
  auto writer = node->StartTransaction();
  ASSERT_TRUE(node->Put(*writer, "alpha", "AAAA").ok());
  ASSERT_TRUE(node->Put(*writer, "beta", "BBBBBBBB").ok());
  ASSERT_TRUE(node->Put(*writer, "gamma", "CC").ok());
  ASSERT_TRUE(node->CommitTransaction(*writer).ok());

  // Fresh node with caching DISABLED forces ranged storage reads.
  AftNodeOptions uncached = PackedOptions();
  uncached.data_cache_bytes = 0;
  auto reader_node = MakeNode("n1", uncached);
  auto reader = reader_node->StartTransaction();
  EXPECT_EQ(reader_node->Get(*reader, "alpha")->value(), "AAAA");
  EXPECT_EQ(reader_node->Get(*reader, "beta")->value(), "BBBBBBBB");
  EXPECT_EQ(reader_node->Get(*reader, "gamma")->value(), "CC");
}

TEST_F(PackedLayoutTest, RecordCarriesLocators) {
  auto node = MakeNode("n0", PackedOptions());
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "x", "12345").ok());
  ASSERT_TRUE(node->Put(*txid, "y", "678").ok());
  auto commit_id = node->CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());

  auto bytes = storage_.Get(CommitStorageKey(*commit_id));
  ASSERT_TRUE(bytes.ok());
  auto record = CommitRecord::Deserialize(*bytes);
  ASSERT_TRUE(record.ok());
  EXPECT_TRUE(record->packed());
  EXPECT_EQ(record->segment_count, 1u);
  ASSERT_EQ(record->locators.size(), 2u);
  const VersionLocator* x = record->FindLocator("x");
  const VersionLocator* y = record->FindLocator("y");
  ASSERT_NE(x, nullptr);
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(x->length, 5u);
  EXPECT_EQ(y->length, 3u);
  EXPECT_EQ(record->FindLocator("z"), nullptr);
}

TEST_F(PackedLayoutTest, SpillsCreateMultipleSegmentsAndRewritesRelocate) {
  AftNodeOptions options = PackedOptions();
  options.spill_threshold_bytes = 8;
  auto node = MakeNode("n0", options);
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "big", "0123456789").ok());  // Spill -> segment 0.
  ASSERT_TRUE(node->Put(*txid, "big", "rewritten!").ok());  // Dirty again.
  ASSERT_TRUE(node->Put(*txid, "other", "zzzz").ok());
  ASSERT_TRUE(node->CommitTransaction(*txid).ok());
  EXPECT_GE(storage_.List(kSegmentPrefix)->size(), 2u);

  auto reader = node->StartTransaction();
  EXPECT_EQ(node->Get(*reader, "big")->value(), "rewritten!");
  EXPECT_EQ(node->Get(*reader, "other")->value(), "zzzz");
}

TEST_F(PackedLayoutTest, AbortDeletesSpilledSegments) {
  AftNodeOptions options = PackedOptions();
  options.spill_threshold_bytes = 8;
  auto node = MakeNode("n0", options);
  auto txid = node->StartTransaction();
  ASSERT_TRUE(node->Put(*txid, "doomed", "0123456789abcdef").ok());
  ASSERT_EQ(AwaitObjectCount(storage_, kSegmentPrefix, 1), 1u);
  ASSERT_TRUE(node->AbortTransaction(*txid).ok());
  EXPECT_TRUE(storage_.List(kSegmentPrefix)->empty());
}

TEST_F(PackedLayoutTest, ReadAtomicityHoldsAcrossLayout) {
  auto node = MakeNode("n0", PackedOptions());
  // Same §3.2 scenario as the per-key tests: no fractured reads.
  auto t1 = node->StartTransaction();
  ASSERT_TRUE(node->Put(*t1, "l", "l1").ok());
  ASSERT_TRUE(node->CommitTransaction(*t1).ok());
  auto t2 = node->StartTransaction();
  ASSERT_TRUE(node->Put(*t2, "k", "k2").ok());
  ASSERT_TRUE(node->Put(*t2, "l", "l2").ok());
  ASSERT_TRUE(node->CommitTransaction(*t2).ok());

  auto reader = node->StartTransaction();
  EXPECT_EQ(node->Get(*reader, "k")->value(), "k2");
  EXPECT_EQ(node->Get(*reader, "l")->value(), "l2");
}

TEST_F(PackedLayoutTest, GlobalGcDeletesSegments) {
  SimS3 fresh(clock_, InstantS3());
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 1;
  cluster_options.start_background_threads = false;
  cluster_options.node_options = PackedOptions();
  ClusterDeployment cluster(fresh, clock_, cluster_options);
  ASSERT_TRUE(cluster.Start().ok());
  AftNode& node = *cluster.node(0);

  auto commit = [&](const std::string& value) {
    auto txid = node.StartTransaction();
    EXPECT_TRUE(node.Put(*txid, "k", value).ok());
    EXPECT_TRUE(node.CommitTransaction(*txid).ok());
  };
  commit("old");
  commit("new");
  cluster.bus().RunOnce();
  (void)node.RunLocalGcOnce();
  EXPECT_EQ(cluster.fault_manager().RunGlobalGcOnce(), 1u);
  cluster.fault_manager().Stop();
  // Only the surviving transaction's segment remains.
  EXPECT_EQ(fresh.List(kSegmentPrefix)->size(), 1u);
  auto reader = node.StartTransaction();
  EXPECT_EQ(node.Get(*reader, "k")->value(), "new");
}

TEST_F(PackedLayoutTest, MixedLayoutsInteroperate) {
  // A packed node and a per-key node over the SAME storage: each reads the
  // other's commits (the record describes its own layout).
  AftNodeOptions per_key;
  per_key.service_cores = 0;
  auto packed_node = MakeNode("packed", PackedOptions());
  auto classic_node = MakeNode("classic", per_key);

  auto t1 = packed_node->StartTransaction();
  ASSERT_TRUE(packed_node->Put(*t1, "from-packed", "p").ok());
  ASSERT_TRUE(packed_node->CommitTransaction(*t1).ok());
  auto t2 = classic_node->StartTransaction();
  ASSERT_TRUE(classic_node->Put(*t2, "from-classic", "c").ok());
  ASSERT_TRUE(classic_node->CommitTransaction(*t2).ok());

  // Cross-pollinate via drains.
  std::vector<CommitRecordPtr> from_packed;
  std::vector<CommitRecordPtr> from_classic;
  packed_node->DrainRecentCommits(nullptr, &from_packed);
  classic_node->DrainRecentCommits(nullptr, &from_classic);
  packed_node->ApplyRemoteCommits(from_classic);
  classic_node->ApplyRemoteCommits(from_packed);

  auto r1 = classic_node->StartTransaction();
  EXPECT_EQ(classic_node->Get(*r1, "from-packed")->value(), "p");
  auto r2 = packed_node->StartTransaction();
  EXPECT_EQ(packed_node->Get(*r2, "from-classic")->value(), "c");
}

// Zero-latency S3-like engine whose PUTs of keys under `failing_prefix`
// fail while it is set.
class FailingPutS3 final : public SimEngineBase {
 public:
  explicit FailingPutS3(Clock& clock)
      : SimEngineBase("failing-s3", clock, InstantS3().profile, StalenessModel{}, 16) {}
  bool SupportsBatchPut() const override { return false; }
  size_t MaxBatchSize() const override { return 1; }
  Status Put(std::string key, std::string value) override {
    if (!failing_prefix.empty() && key.starts_with(failing_prefix)) {
      return Status::Unavailable("injected put failure");
    }
    return SimEngineBase::Put(std::move(key), std::move(value));
  }

  std::string failing_prefix;
};

TEST(PackedLayoutRetryTest, FailedCommitLeavesPackedStateForRetry) {
  SimClock clock;
  FailingPutS3 storage(clock);
  AftNodeOptions options = PackedOptions();
  options.spill_threshold_bytes = 8;
  AftNode node("n0", storage, clock, options);
  ASSERT_TRUE(node.Start().ok());
  auto txid = node.StartTransaction();
  ASSERT_TRUE(node.Put(*txid, "big", "0123456789").ok());  // Spill -> segment 0.
  ASSERT_TRUE(node.Put(*txid, "other", "zz").ok());
  ASSERT_TRUE(node.Put(*txid, "big", "abc").ok());  // Dirty again, below the threshold.
  ASSERT_EQ(AwaitObjectCount(storage, kSegmentPrefix, 1), 1u);

  // The commit's segment write (segment 1) fails: nothing is written.
  storage.failing_prefix = kSegmentPrefix;
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(storage.List(kSegmentPrefix)->size(), 1u);
  // Segment 2 lands but the record write fails. A failed round's segment
  // name is never reused, so a retry cannot overwrite it with other bytes.
  storage.failing_prefix = kCommitPrefix;
  EXPECT_FALSE(node.CommitTransaction(*txid).ok());
  EXPECT_EQ(storage.List(kSegmentPrefix)->size(), 2u);
  EXPECT_TRUE(storage.List(kCommitPrefix)->empty());

  // The retry writes segment 3 from the untouched buffer and locators; the
  // record's segment count covers the failed rounds' names for the GC.
  storage.failing_prefix.clear();
  auto commit_id = node.CommitTransaction(*txid);
  ASSERT_TRUE(commit_id.ok());
  EXPECT_EQ(storage.List(kSegmentPrefix)->size(), 3u);
  auto bytes = storage.Get(CommitStorageKey(*commit_id));
  ASSERT_TRUE(bytes.ok());
  auto record = CommitRecord::Deserialize(*bytes);
  ASSERT_TRUE(record.ok());
  EXPECT_EQ(record->segment_count, 4u);
  ASSERT_EQ(record->locators.size(), 2u);
  EXPECT_EQ(record->FindLocator("big")->segment_index, 3u);
  EXPECT_EQ(record->FindLocator("other")->segment_index, 3u);

  // An uncached node reads both keys by ranged GETs of segment 3.
  AftNodeOptions uncached = PackedOptions();
  uncached.data_cache_bytes = 0;
  AftNode reader_node("n1", storage, clock, uncached);
  ASSERT_TRUE(reader_node.Start().ok());
  auto reader = reader_node.StartTransaction();
  EXPECT_EQ(reader_node.Get(*reader, "big")->value(), "abc");
  EXPECT_EQ(reader_node.Get(*reader, "other")->value(), "zz");
}

}  // namespace
}  // namespace aft
