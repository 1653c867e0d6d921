// Benchmark program: runs one workload for a fixed time and prints the
// host fingerprint, then one JSON result line.
//
//   perfbench --workload ingest|serve_read|serve_mixed --seed N
//             --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
// probes instead (see README.md for the layer → end-to-end map).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload ingest|serve_read|serve_mixed "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::MarkProcessStart();
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage();
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0)) return Usage();
    } else if (std::strcmp(flag, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      args.trace = value[0] == '1';
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  const bool ingest = args.workload == "ingest";
  const bool mixed = args.workload == "serve_mixed";
  if (!ingest && !mixed && args.workload != "serve_read") return Usage();

  std::printf("%s\n", perfbench::HostFingerprint().c_str());
  std::fflush(stdout);
  perfbench::Result result;
  if (!args.trace) {
    result = ingest ? perfbench::RunIngest(args)
                    : perfbench::RunServe(args, mixed);
  } else {
    // Every per-layer metric on every workload: the ingest layers on the
    // workload's world, the serve layers under its traffic mix (ingest
    // uses the read-only mix), and the microbenchmarks.
    perfbench::IngestLayers(&result);
    perfbench::ServeLayers(args, mixed, &result);
    perfbench::MicroProbes(&result);
  }
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.Check("non-finite metric " + m.name);
  }
  if (result.attempted < 1) result.Check("no operation attempted");
  perfbench::PrintResult(result);
  return 0;
}
