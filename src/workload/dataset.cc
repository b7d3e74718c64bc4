#include "src/workload/dataset.h"

#include <algorithm>
#include <array>
#include <thread>

#include "src/common/io_executor.h"
#include "src/common/serde.h"
#include "src/core/records.h"
#include "src/storage/sim_engine_base.h"

namespace aft {
namespace {

// Writes through DirectPut when the engine is one of ours.
void StoreDirect(StorageEngine& storage, std::string key, std::string value) {
  if (auto* sim = dynamic_cast<SimEngineBase*>(&storage); sim != nullptr) {
    sim->DirectPut(std::move(key), std::move(value));
  } else {
    (void)storage.Put(key, value);
  }
}

// Values a payload-filling lane claims at a time.
constexpr size_t kFillChunk = 32;

// The dataset's entry for one rank: its user key, writer and encoded
// VersionedValue.
struct DatasetEntry {
  std::string key;
  TxnId writer;
  std::string value;
};

// Draws the writers in rank order from the dataset's seed and encodes each
// value into a buffer allocated at its exact final size, all on the calling
// thread. The payload bytes, MakePayload(spec, rank), are then filled across
// up to one lane per hardware thread; a lane writes only into the disjoint
// buffers allocated here and allocates nothing.
std::vector<DatasetEntry> EncodeDataset(const WorkloadSpec& spec) {
  const size_t n = spec.value_bytes;
  Rng rng(0xDA7A5EEDULL);
  std::vector<DatasetEntry> entries;
  entries.reserve(spec.num_keys);
  for (uint64_t rank = 0; rank < spec.num_keys; ++rank) {
    DatasetEntry& entry = entries.emplace_back(KeyForRank(rank), TxnId(1, Uuid::Random(rng)));
    const std::array<std::string_view, 1> cowritten{entry.key};
    BinaryWriter w;
    w.Reserve(record_detail::kRecordHeaderBytes + EncodedStringVectorBytes(cowritten) + 4 + n);
    EncodeVersionedValueHeader(w, entry.writer, cowritten, n);
    entry.value = std::move(w).TakeData();
    entry.value.resize(entry.value.size() + n);  // Within the reserved capacity.
  }
  const size_t chunks = (entries.size() + kFillChunk - 1) / kFillChunk;
  (void)IoExecutor::Shared().ParallelFor(
      chunks,
      [&](size_t chunk) {
        const size_t end = std::min(entries.size(), (chunk + 1) * kFillChunk);
        for (size_t rank = chunk * kFillChunk; rank < end; ++rank) {
          std::string& value = entries[rank].value;
          FillPayload(value.data() + value.size() - n, n, rank);
        }
        return Status::Ok();
      },
      std::max(1u, std::thread::hardware_concurrency()));
  return entries;
}

}  // namespace

Status LoadAftDataset(StorageEngine& storage, const WorkloadSpec& spec) {
  for (DatasetEntry& entry : EncodeDataset(spec)) {
    StoreDirect(storage, VersionStorageKey(entry.key, entry.writer.uuid), std::move(entry.value));
    CommitRecord record{entry.writer, {std::move(entry.key)}, {}};
    StoreDirect(storage, CommitStorageKey(entry.writer), record.Serialize());
  }
  return Status::Ok();
}

Status LoadPlainDataset(StorageEngine& storage, const WorkloadSpec& spec) {
  for (DatasetEntry& entry : EncodeDataset(spec)) {
    StoreDirect(storage, std::move(entry.key), std::move(entry.value));
  }
  return Status::Ok();
}

}  // namespace aft
