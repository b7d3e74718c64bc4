// aftbench: runs one workload and writes its raw measurements.
//
//   aftbench --workload fig3_s3|fig3_tcp|rmw_local --seed N
//            --seconds S --trace 0|1 --out DIR
//
// Writes DIR/result.json (latencies, counters, correctness findings, set-up
// times), DIR/registry_{before,after}.prom (the metrics registry around the
// measured phase) and, when tracing, DIR/spans.tsv. run.py builds this
// binary, runs it and derives every reported metric from those files.

#include <sys/resource.h>
#include <sys/vfs.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "perfbench/workloads.h"

namespace perfbench {
namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    switch (ch) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out + "\"";
}

void WriteNumbers(std::FILE* f, const std::vector<double>& values) {
  std::fputc('[', f);
  for (size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.6f", i == 0 ? "" : ",", values[i]);
  }
  std::fputc(']', f);
}

void WriteCounters(std::FILE* f, const std::map<std::string, double>& counters) {
  std::fputc('{', f);
  bool first = true;
  for (const auto& [name, value] : counters) {
    std::fprintf(f, "%s%s:%.17g", first ? "" : ",", JsonString(name).c_str(), value);
    first = false;
  }
  std::fputc('}', f);
}

// What backs the data directory: fsync on tmpfs is nearly free, so a number
// from there says nothing about disks.
std::string FilesystemType(const std::string& path) {
  struct statfs fs {};
  if (::statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL:
      return "ext4";
    case 0x01021994UL:
      return "tmpfs";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      char buf[24];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  return std::fclose(f) == 0;
}

bool WriteResult(const RunOptions& options, const RunResult& r) {
  const std::string& dir = options.out_dir;
  if (!WriteText(dir + "/registry_before.prom", r.registry_before) ||
      !WriteText(dir + "/registry_after.prom", r.registry_after)) {
    return false;
  }
  if (options.trace) {
    std::FILE* spans = std::fopen((dir + "/spans.tsv").c_str(), "w");
    if (spans == nullptr) {
      return false;
    }
    SpanLog::WriteTsv(spans, r.spans);
    if (std::fclose(spans) != 0) {
      return false;
    }
  }
  std::FILE* f = std::fopen((dir + "/result.json").c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  std::fprintf(f, "{\"workload\":%s,\"seed\":%llu,\"seconds\":%.3f,\"trace\":%d,",
               JsonString(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
               options.seconds, options.trace ? 1 : 0);
  std::fprintf(f, "\"time_scale\":%.17g,\"peak_rss_kb\":%ld,\"data_fs\":%s,", r.time_scale,
               usage.ru_maxrss,
               JsonString(FilesystemType(dir)).c_str());
  std::fprintf(f, "\"setup_s\":");
  WriteNumbers(f, r.setup_s);
  std::fprintf(f, ",\"main_phase\":%s,\"baseline_phase\":%s,\"phases\":[",
               JsonString(r.main_phase).c_str(), JsonString(r.baseline_phase).c_str());
  for (size_t i = 0; i < r.phases.size(); ++i) {
    const Phase& p = r.phases[i];
    std::fprintf(f,
                 "%s{\"name\":%s,\"attempted\":%llu,\"failed\":%llu,\"request_retries\":%llu,"
                 "\"elapsed_s\":%.6f,\"latency_ms\":",
                 i == 0 ? "" : ",", JsonString(p.name).c_str(),
                 static_cast<unsigned long long>(p.attempted),
                 static_cast<unsigned long long>(p.failed),
                 static_cast<unsigned long long>(p.request_retries), p.elapsed_s);
    WriteNumbers(f, p.latency_ms);
    std::fputc('}', f);
  }
  std::fprintf(f,
               "],\"audited_txns\":%llu,\"ryw_anomalies\":%llu,\"fr_anomalies\":%llu,"
               "\"durability_keys\":%llu,\"durability_lost\":%llu,\"recovered_stale\":%llu,"
               "\"recovery_ms\":%.6f,",
               static_cast<unsigned long long>(r.audited_txns),
               static_cast<unsigned long long>(r.ryw_anomalies),
               static_cast<unsigned long long>(r.fr_anomalies),
               static_cast<unsigned long long>(r.durability_keys),
               static_cast<unsigned long long>(r.durability_lost),
               static_cast<unsigned long long>(r.recovered_stale), r.recovery_ms);
  std::fprintf(f, "\"before\":");
  WriteCounters(f, r.before);
  std::fprintf(f, ",\"after\":");
  WriteCounters(f, r.after);
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: aftbench --workload fig3_s3|fig3_tcp|rmw_local --seed N "
               "--seconds S --trace 0|1 --out DIR\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.out_dir.empty() || options.seconds <= 0) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  RunResult result;
  bool ok = false;
  if (options.workload == "fig3_s3") {
    ok = RunFig3S3(options, &result);
  } else if (options.workload == "fig3_tcp") {
    ok = RunFig3Tcp(options, &result);
  } else if (options.workload == "rmw_local") {
    ok = RunRmwLocal(options, &result);
  } else {
    return Usage();
  }
  if (!ok) {
    return 1;
  }
  if (!WriteResult(options, result)) {
    std::fprintf(stderr, "perfbench: cannot write results under %s\n", options.out_dir.c_str());
    return 1;
  }
  return 0;
}
