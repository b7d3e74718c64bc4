#include "src/workload/harness.h"

#include <cstdio>
#include <thread>
#include <vector>

#include "src/common/histogram.h"
#include "src/obs/metrics.h"

namespace aft {

std::string HarnessResult::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "completed=%llu failed=%llu tput=%.1f txn/s p50=%.2fms p99=%.2fms "
                "ryw=%llu fr=%llu",
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(failed), throughput_tps, p50_ms, p99_ms,
                static_cast<unsigned long long>(ryw_anomalies),
                static_cast<unsigned long long>(fr_anomalies));
  return std::string(buf);
}

HarnessResult RunClients(Clock& clock, RequestRunner& runner, const HarnessOptions& options,
                         ThroughputTimeline* timeline) {
  obs::Histogram latency(FineLatencyBoundariesMs());
  AnomalyCounters anomalies;
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};

  const TimePoint start = clock.Now();
  if (timeline != nullptr) {
    timeline->Start();
  }

  auto client_loop = [&](size_t client_index) {
    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + client_index + 1);
    for (size_t i = 0; i < options.requests_per_client; ++i) {
      if (options.max_duration > Duration::zero() &&
          clock.Now() - start >= options.max_duration) {
        return;
      }
      TxnLog log;
      const TimePoint begin = clock.Now();
      Status status = runner.RunOnce(rng, &log);
      const TimePoint end = clock.Now();
      if (!status.ok()) {
        failed.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      latency.Observe(ToMillis(end - begin));
      completed.fetch_add(1, std::memory_order_relaxed);
      if (timeline != nullptr) {
        timeline->RecordEvent();
      }
      if (options.check_anomalies) {
        anomalies.Accumulate(CheckTransaction(log));
      }
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(options.num_clients);
  for (size_t c = 0; c < options.num_clients; ++c) {
    clients.emplace_back(client_loop, c);
  }
  for (auto& t : clients) {
    t.join();
  }

  HarnessResult result;
  result.p50_ms = latency.Quantile(0.50);
  result.p99_ms = latency.Quantile(0.99);
  result.completed = completed.load();
  result.failed = failed.load();
  result.ryw_anomalies = anomalies.ryw_anomalies.load();
  result.fr_anomalies = anomalies.fr_anomalies.load();
  result.elapsed_sec = ToMillis(clock.Now() - start) / 1000.0;
  result.throughput_tps =
      result.elapsed_sec > 0 ? static_cast<double>(result.completed) / result.elapsed_sec : 0;
  return result;
}

}  // namespace aft
