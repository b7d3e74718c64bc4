// Shared helpers for the paper-reproduction benchmarks.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (§6) and prints the measured rows next to the paper's reported
// numbers. Latencies are in SIMULATED milliseconds: the engines sleep
// `latency * AFT_TIME_SCALE` of wall time (default 0.05, i.e. 20x faster
// than real time) and all reported numbers are in simulated units, so the
// scale does not change the results, only how long the bench takes.
//
// Knobs (environment variables):
//   AFT_TIME_SCALE      wall seconds per simulated second (default 0.05)
//   AFT_BENCH_REQUESTS  per-client request count override (default per bench)
//   AFT_BENCH_JSON      append one JSON line per measured row to this file
//                       (consumed by tools/bench.sh to build BENCH_results.json)

#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>

#include "src/common/clock.h"

namespace aft {
namespace bench {

// ---- Allocations-per-op counter (opt-in) -----------------------------------
// A bench binary that wants to report heap allocations per operation defines
// AFT_BENCH_COUNT_ALLOCS before including this header. That compiles a
// binary-wide replacement of the global operator new/delete (each bench is a
// single translation unit, so the replacement is defined exactly once) which
// bumps a thread-local counter while an AllocCountScope is armed on the
// calling thread. Disarmed threads pay one thread-local branch per
// allocation; binaries that do not define the macro are untouched.
#ifdef AFT_BENCH_COUNT_ALLOCS
namespace alloc_detail {
inline thread_local uint64_t g_allocs = 0;
inline thread_local bool g_armed = false;
}  // namespace alloc_detail

// Counts allocations made by THIS thread while in scope. Scopes do not nest
// meaningfully (the counter keeps running; count() is a simple delta), which
// is all the benches need.
class AllocCountScope {
 public:
  AllocCountScope() : start_(alloc_detail::g_allocs) { alloc_detail::g_armed = true; }
  ~AllocCountScope() { alloc_detail::g_armed = false; }
  AllocCountScope(const AllocCountScope&) = delete;
  AllocCountScope& operator=(const AllocCountScope&) = delete;

  uint64_t count() const { return alloc_detail::g_allocs - start_; }

 private:
  uint64_t start_;
};
#endif  // AFT_BENCH_COUNT_ALLOCS

inline double GetEnvDouble(const char* name, double fallback) {
  if (const char* env = std::getenv(name); env != nullptr) {
    const double v = std::atof(env);
    if (v > 0) {
      return v;
    }
  }
  return fallback;
}

inline long GetEnvLong(const char* name, long fallback) {
  if (const char* env = std::getenv(name); env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) {
      return v;
    }
  }
  return fallback;
}

// Like GetEnvLong but an explicit "0" is a valid setting.
inline long GetEnvNonNegLong(const char* name, long fallback) {
  if (const char* env = std::getenv(name); env != nullptr && env[0] != '\0') {
    return std::atol(env);
  }
  return fallback;
}

// The bench clock: real time scaled down so simulated cloud latencies play
// out 1/scale times faster. The defaults apply only to the FIRST call in the
// process (latency benches use a small scale + precise spin sleeps;
// throughput benches pass a larger scale and spin_us = 0 so hundreds of
// client threads do not busy-wait on one another).
inline RealClock& BenchClock(double default_scale = 0.05, long default_spin_us = 200) {
  static RealClock* clock = new RealClock(
      GetEnvDouble("AFT_TIME_SCALE", default_scale),
      std::chrono::microseconds(GetEnvNonNegLong("AFT_SPIN_US", default_spin_us)));
  return *clock;
}

inline void PrintTitle(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void PrintNote(const std::string& note) { std::printf("  %s\n", note.c_str()); }

// An extra numeric field appended to a JSON row, printed with `decimals`
// digits after the point.
struct JsonField {
  const char* name;
  double value;
  int decimals;
};

// Heap allocations per operation (consumed by the tools/bench_gate.sh
// ceilings) and fsyncs per transaction (the local-engine batch-fusion figure).
inline JsonField AllocsPerTxn(double value) { return {"allocs_per_txn", value, 1}; }
inline JsonField FsyncsPerTxn(double value) { return {"fsyncs_per_txn", value, 3}; }

// Machine-readable row sink. When AFT_BENCH_JSON names a file, every measured
// row is appended to it as one JSON object per line; tools/bench.sh collects
// the lines into BENCH_results.json. No-op when the variable is unset.
inline void EmitJsonRow(const std::string& bench, const std::string& row,
                        double p50_ms, double p99_ms, double throughput_tps,
                        uint64_t completed, std::optional<JsonField> extra = std::nullopt) {
  static std::FILE* sink = []() -> std::FILE* {
    const char* path = std::getenv("AFT_BENCH_JSON");
    if (path == nullptr || path[0] == '\0') {
      return nullptr;
    }
    return std::fopen(path, "a");
  }();
  if (sink == nullptr) {
    return;
  }
  char extra_text[64] = "";
  if (extra.has_value()) {
    std::snprintf(extra_text, sizeof(extra_text), ",\"%s\":%.*f", extra->name,
                  extra->decimals, extra->value);
  }
  std::fprintf(sink,
               "{\"bench\":\"%s\",\"row\":\"%s\",\"p50_ms\":%.4f,"
               "\"p99_ms\":%.4f,\"txn_per_s\":%.2f,\"completed\":%llu%s}\n",
               bench.c_str(), row.c_str(), p50_ms, p99_ms, throughput_tps,
               static_cast<unsigned long long>(completed), extra_text);
  std::fflush(sink);
}

}  // namespace bench
}  // namespace aft

#ifdef AFT_BENCH_COUNT_ALLOCS
// Global operator new/delete replacement backing AllocCountScope. Defined in
// the header because every bench binary is one translation unit; the counter
// must see EVERY allocation in the binary, including those inside libstdc++
// container code, so this cannot live behind a function-call boundary.
//
// GCC cannot see that these replacements pair malloc with free and warns
// about a mismatch at some inlined call sites; the pairing is by design.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace aft_bench_alloc_impl {
inline void* CountedAlloc(std::size_t size) {
  if (aft::bench::alloc_detail::g_armed) {
    ++aft::bench::alloc_detail::g_allocs;
  }
  return std::malloc(size != 0 ? size : 1);
}
}  // namespace aft_bench_alloc_impl

void* operator new(std::size_t size) {
  if (void* p = aft_bench_alloc_impl::CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return aft_bench_alloc_impl::CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return aft_bench_alloc_impl::CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // AFT_BENCH_COUNT_ALLOCS

#endif  // BENCH_BENCH_COMMON_H_
