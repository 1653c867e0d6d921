// Shared plumbing of the benchmark program: command line, clocks, process
// resource readings, the host fingerprint, summary statistics and the
// result line the program prints last.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/action.h"
#include "data/event_generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Why `correct` is false; printed to stderr, one line each.
  std::vector<std::string> errors;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a failed correctness check (empty `error` = passed).
  void Check(const std::string& error) {
    if (error.empty()) return;
    correct = false;
    if (errors.size() < 20) errors.push_back(error);
  }
};

/// Time since the process started main(); the origin of `setup_s`.
double SinceProcessStart();
void MarkProcessStart();

double Seconds(Clock::time_point from, Clock::time_point to);

/// What one interval timed with two Clock::now() reads adds by itself:
/// the median over batches of the mean of back-to-back reads, ns. Per-call
/// layer timings subtract it once per timed call.
double TimedIntervalOverheadNs();

/// Process CPU time (user + system), seconds, from getrusage.
double ProcessCpuSeconds();
/// Voluntary and involuntary context switches of the process so far.
void ContextSwitches(std::int64_t* voluntary, std::int64_t* involuntary);
/// Peak resident set size of the process, MiB (VmHWM).
double PeakRssMb();

/// nproc, CPU model, compiler and build type on one line.
std::string HostFingerprint();

/// Median and quantiles of an unsorted sample (copied, not modified).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// The 1M-user / 100k-video scenario world of the workloads. It is the
/// same world for every --seed: the seed picks the requests, the held-out
/// users and the checked samples drawn from it (README.md says why).
rtrec::WorldConfig BenchWorld();

/// Prints `result` as the final JSON line on stdout.
void PrintResult(const Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
