// Microbenchmarks (google-benchmark) for AFT's hot-path primitives: the
// Algorithm 1 version-selection loop, supersedence checks, record codecs,
// the key version index, the CRC-32 kernel and the Zipf sampler. These
// quantify the per-op CPU cost that underlies the node service-time model.
// BM_MakePayload times the workload's value generator, which every dataset
// load runs once per key; BM_LoadAftDataset times a whole load.
// BM_VersionedMapChurn times the simulated store's put-then-delete cycle.

#include <benchmark/benchmark.h>

#include "src/common/crc32.h"
#include "src/common/zipf.h"
#include "src/core/read_algorithm.h"
#include "src/storage/sim_s3.h"
#include "src/storage/versioned_map.h"
#include "src/workload/dataset.h"
#include "src/workload/workload.h"

namespace aft {
namespace {

CommitRecordPtr MakeRecord(Rng& rng, int64_t ts, std::vector<std::string> keys) {
  return std::make_shared<const CommitRecord>(CommitRecord{TxnId(ts, Uuid::Random(rng)), keys});
}

// Algorithm 1 with a configurable number of versions per key and read-set size.
void BM_AtomicReadSelect(benchmark::State& state) {
  const int versions = static_cast<int>(state.range(0));
  const int read_set_size = static_cast<int>(state.range(1));
  Rng rng(1);
  KeyVersionIndex index;
  CommitSetCache commits;
  // `versions` committed versions of the target key, each cowriting 3 keys.
  for (int v = 1; v <= versions; ++v) {
    auto record = MakeRecord(rng, v * 10,
                             {"target", "a" + std::to_string(v % 5), "b" + std::to_string(v % 7)});
    commits.Add(record);
    index.AddCommit(*record);
  }
  std::unordered_map<std::string, ReadSetEntry> read_set;
  for (int i = 0; i < read_set_size; ++i) {
    auto record = MakeRecord(rng, 5, {"r" + std::to_string(i)});
    commits.Add(record);
    index.AddCommit(*record);
    read_set["r" + std::to_string(i)] = ReadSetEntry{record->id, record};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SelectAtomicReadVersion("target", read_set, index, commits));
  }
}
BENCHMARK(BM_AtomicReadSelect)->Args({1, 0})->Args({8, 4})->Args({64, 16})->Args({256, 64});

void BM_IsTransactionSuperseded(benchmark::State& state) {
  Rng rng(2);
  KeyVersionIndex index;
  std::vector<std::string> keys;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    keys.push_back("k" + std::to_string(i));
  }
  CommitRecord old_record{TxnId(10, Uuid::Random(rng)), keys};
  index.AddCommit(old_record);
  CommitRecord new_record{TxnId(20, Uuid::Random(rng)), keys};
  index.AddCommit(new_record);
  for (auto _ : state) {
    benchmark::DoNotOptimize(IsTransactionSuperseded(old_record, index));
  }
}
BENCHMARK(BM_IsTransactionSuperseded)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_CommitRecordRoundTrip(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::string> keys;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    keys.push_back("key" + std::to_string(i));
  }
  const CommitRecord record{TxnId(123456789, Uuid::Random(rng)), keys};
  for (auto _ : state) {
    const std::string bytes = record.Serialize();
    benchmark::DoNotOptimize(CommitRecord::Deserialize(bytes));
  }
}
BENCHMARK(BM_CommitRecordRoundTrip)->Arg(1)->Arg(8)->Arg(32);

void BM_VersionedValueRoundTrip(benchmark::State& state) {
  Rng rng(4);
  const VersionedValue value{TxnId(1, Uuid::Random(rng)),
                             {"k1", "k2", "k3"},
                             std::string(static_cast<size_t>(state.range(0)), 'x')};
  for (auto _ : state) {
    const std::string bytes = value.Serialize();
    benchmark::DoNotOptimize(VersionedValue::Deserialize(bytes));
  }
}
BENCHMARK(BM_VersionedValueRoundTrip)->Arg(256)->Arg(4096)->Arg(65536);

// The one CRC-32 kernel every WAL record and wire frame goes through.
void BM_Crc32(benchmark::State& state) {
  std::string data(static_cast<size_t>(state.range(0)), '\0');
  Rng rng(7);
  for (char& c : data) {
    c = static_cast<char>(rng.Below(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(4096)->Arg(1 << 20);

// One dataset value (4 KiB), built the way every preloaded key's is.
void BM_MakePayload(benchmark::State& state) {
  WorkloadSpec spec;
  spec.value_bytes = 4096;
  uint64_t salt = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakePayload(spec, salt++));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(spec.value_bytes));
}
BENCHMARK(BM_MakePayload);

// The Fig 3 AFT dataset: 1,000 keys of 4 KiB loaded into a fresh SimS3,
// the store's own set-up and teardown included.
void BM_LoadAftDataset(benchmark::State& state) {
  WorkloadSpec spec;
  spec.num_keys = 1000;
  spec.value_bytes = 4096;
  SimClock clock;
  for (auto _ : state) {
    SimS3 store(clock);
    benchmark::DoNotOptimize(LoadAftDataset(store, spec));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(spec.num_keys * spec.value_bytes));
}
BENCHMARK(BM_LoadAftDataset)->Unit(benchmark::kMillisecond);

// Steady-state churn of the simulated store: each iteration creates a key
// and deletes it 1 ms later on the store's clock. Arg = retention horizon in
// ms: 0 (consistent engine: the key goes at once) or 2000 (SimS3: the
// tombstone is queued and reaped by a later mutation, ~2,000 deleted keys
// held).
void BM_VersionedMapChurn(benchmark::State& state) {
  VersionedMap map(16, 8, Millis(state.range(0)));
  std::vector<std::string> keys;
  for (int i = 0; i < 4096; ++i) {
    keys.push_back("c/" + std::to_string(1000000 + i));
  }
  const std::string value(64, 'x');
  int64_t ms = 0;
  for (auto _ : state) {
    const std::string& key = keys[static_cast<size_t>(ms) % keys.size()];
    map.Put(key, value, TimePoint(Millis(ms)));
    map.Delete(key, TimePoint(Millis(ms + 1)));
    ++ms;
  }
  state.counters["keys_held"] = static_cast<double>(map.ApproximateKeyCount());
}
BENCHMARK(BM_VersionedMapChurn)->Arg(0)->Arg(2000);

void BM_KeyVersionIndexAdd(benchmark::State& state) {
  Rng rng(5);
  int64_t ts = 1;
  KeyVersionIndex index;
  for (auto _ : state) {
    CommitRecord record{TxnId(ts++, Uuid::Random(rng)),
                        {"a" + std::to_string(ts % 100), "b" + std::to_string(ts % 37)}};
    index.AddCommit(record);
  }
}
BENCHMARK(BM_KeyVersionIndexAdd);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(6);
  ZipfSampler zipf(100000, static_cast<double>(state.range(0)) / 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(0)->Arg(10)->Arg(15)->Arg(20);

}  // namespace
}  // namespace aft

BENCHMARK_MAIN();
