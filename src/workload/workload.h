// Workload generation for the paper's evaluation (§6).
//
// The canonical workload: each logical request (transaction) is a linear
// composition of F functions, each performing R reads and W writes of 4 KB
// objects, with keys drawn from a Zipf distribution over a fixed dataset.
// The default (F=2, R=2, W=1, 6 IOs, Zipf 1.0, 1,000 keys) is the §6.1.2
// configuration used throughout the paper.

#ifndef SRC_WORKLOAD_WORKLOAD_H_
#define SRC_WORKLOAD_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/zipf.h"

namespace aft {

struct WorkloadSpec {
  uint64_t num_keys = 1000;
  double zipf_theta = 1.0;
  size_t value_bytes = 4096;
  size_t num_functions = 2;
  size_t reads_per_function = 2;
  size_t writes_per_function = 1;

  size_t TotalIos() const {
    return num_functions * (reads_per_function + writes_per_function);
  }
};

// "key000042" — stable names for Zipf ranks.
std::string KeyForRank(uint64_t rank);

// A deterministic filler payload of the spec's value size: lowercase letters,
// distinct per salt so tests can tell which version they read. Byte i is
// 'a' + (s_{i+1} >> 33) % 26 over the LCG s_0 = salt * 0x9e3779b97f4a7c15 + 1,
// s_{k+1} = 6364136223846793005 * s_k + 1442695040888963407 (mod 2^64). The
// kernel steps 8 lanes at once, jumping each 8 states per step, and its
// bytes equal that bytewise definition at every length and salt (pinned by
// MakePayloadTest in tests/workload_test.cc).
std::string MakePayload(const WorkloadSpec& spec, uint64_t salt);

// MakePayload's kernel: writes the n payload bytes for `salt` to out[0, n)
// and touches nothing else, so callers can fill disjoint slices of their
// own buffers concurrently.
void FillPayload(char* out, size_t n, uint64_t salt);

// One planned operation and the full plan of a request. Plans are generated
// up front because the baselines need the request's write set at write time
// (for embedded cowritten metadata) — AFT itself needs no such declaration.
struct OpPlan {
  bool is_read = true;
  std::string key;
};

struct TxnPlan {
  // ops[f] = the operations of function f, reads first then writes.
  std::vector<std::vector<OpPlan>> functions;
  // Unique keys written anywhere in the request.
  std::vector<std::string> write_set;
};

class TxnPlanGenerator {
 public:
  explicit TxnPlanGenerator(const WorkloadSpec& spec)
      : spec_(spec), zipf_(spec.num_keys, spec.zipf_theta) {}

  // Thread-safe: all mutable state lives in the caller's RNG.
  TxnPlan Generate(Rng& rng) const;

  const WorkloadSpec& spec() const { return spec_; }

 private:
  const WorkloadSpec spec_;
  const ZipfSampler zipf_;
};

}  // namespace aft

#endif  // SRC_WORKLOAD_WORKLOAD_H_
