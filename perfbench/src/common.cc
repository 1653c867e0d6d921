#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "eval/experiment_runner.h"

namespace perfbench {
namespace {

Clock::time_point g_process_start = Clock::now();

std::string ReadCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

void MarkProcessStart() { g_process_start = Clock::now(); }

double SinceProcessStart() { return Seconds(g_process_start, Clock::now()); }

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double TimedIntervalOverheadNs() {
  constexpr int kBatches = 21;
  constexpr int kPairs = 20000;
  std::vector<double> means;
  for (int batch = 0; batch < kBatches; ++batch) {
    double total_ns = 0.0;
    for (int i = 0; i < kPairs; ++i) {
      const Clock::time_point a = Clock::now();
      const Clock::time_point b = Clock::now();
      total_ns += std::chrono::duration<double, std::nano>(b - a).count();
    }
    means.push_back(total_ns / kPairs);
  }
  return Median(means);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

void ContextSwitches(std::int64_t* voluntary, std::int64_t* involuntary) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  *voluntary = usage.ru_nvcsw;
  *involuntary = usage.ru_nivcsw;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::string HostFingerprint() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host: nproc=%ld cpu=\"%s\" compiler=\"%s\" build=%s",
                sysconf(_SC_NPROCESSORS_ONLN), ReadCpuModel().c_str(),
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  return buf;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

rtrec::WorldConfig BenchWorld() { return rtrec::MillionScaleWorldConfig(); }

void PrintResult(const Result& result) {
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    // Non-finite values are not JSON; they print as null and fail the run.
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
