// The WARLOCK benchmark driver. Runs one workload from a seed for a number
// of seconds and prints one JSON document on its last stdout line: the run
// record, the operation counts, any failure messages, and the metrics
// (end-to-end ones untraced, per-layer ones with --trace 1).
//
//   warlock_perfbench --workload apb1-advise --seed 7 --seconds 20
//       --trace 0 [--threads N] [--root DIR] [--digest-only]
//
// perfbench/run.py builds this driver and wraps its output; see
// perfbench/README.md.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_util.h"
#include "common/failpoint.h"
#include "common/json.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifdef __clang__
#define PERFBENCH_COMPILER "clang " __clang_version__
#else
#define PERFBENCH_COMPILER "gcc " __VERSION__
#endif

unsigned Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "warlock_perfbench: %s\nusage: warlock_perfbench --workload "
               "apb1-advise|warlockd-mixed|scenario-sweep --seed N "
               "--seconds S --trace 0|1 [--threads N] [--root DIR] "
               "[--digest-only]\n",
               why);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

std::string Quoted(const std::string& s) { return warlock::JsonString(s); }

void PrintResult(const RunOptions& options, const RunReport& report) {
  std::string out = "{\"record\": {";
  out += "\"workload\": " + Quoted(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + warlock::JsonNumber(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  out += ", \"threads\": " + std::to_string(options.threads);
  out += ", \"nproc\": " + std::to_string(options.nproc);
  out += ", \"build_type\": " + Quoted(PERFBENCH_BUILD_TYPE);
  out += ", \"compiler\": " + Quoted(PERFBENCH_COMPILER);
  out += ", \"input_digest\": " + Quoted(report.input_digest);
  out += "}, \"correct\": ";
  out += report.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted());
  out += ", \"failed\": " + std::to_string(report.failed());
  out += ", \"errors\": [";
  for (size_t i = 0; i < report.errors().size(); ++i) {
    out += (i == 0 ? "" : ", ") + Quoted(report.errors()[i]);
  }
  out += "], \"metrics\": {";
  for (size_t i = 0; i < report.metrics().size(); ++i) {
    const perfbench::Metric& m = report.metrics()[i];
    out += (i == 0 ? "" : ", ") + Quoted(m.name) +
           ": {\"value\": " + warlock::JsonNumber(m.value) +
           ", \"unit\": " + Quoted(m.unit) + "}";
  }
  out += "}}\n";
  std::fputs(out.c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.nproc = Nproc();
  options.threads = std::min(4u, options.nproc);
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--digest-only") {
      options.digest_only = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && ParseU64(value, &n)) {
      options.seed = n;
      have_seed = true;
    } else if (arg == "--seconds" && ParseU64(value, &n) && n >= 1) {
      options.seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (arg == "--trace" && ParseU64(value, &n) && n <= 1) {
      options.trace = n == 1;
      have_trace = true;
    } else if (arg == "--threads" && ParseU64(value, &n) && n >= 1) {
      if (n > options.nproc) {
        return Usage(("--threads " + std::to_string(n) + " exceeds nproc " +
                      std::to_string(options.nproc))
                         .c_str());
      }
      options.threads = static_cast<unsigned>(n);
    } else if (arg == "--root") {
      options.root = value;
    } else {
      return Usage(("bad argument " + arg + " " + value).c_str());
    }
  }
  if (!have_workload || !have_seed ||
      (!options.digest_only && (!have_seconds || !have_trace))) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  // Failpoint checks are compiled into non-NDEBUG builds only; arming one
  // succeeds exactly when they are, and timings of such a build are not
  // comparable.
  if (warlock::common::failpoint::Arm(
          warlock::common::failpoint::kParseSchema, 1)
          .ok()) {
    warlock::common::failpoint::DisarmAll();
    std::fprintf(stderr,
                 "warlock_perfbench: refusing a build with failpoints "
                 "compiled in (build it with NDEBUG, e.g. Release)\n");
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(options.root + "/.bench_out", ec);

  perfbench::Tracer tracer(false);
  RunReport report;
  if (options.workload == "apb1-advise") {
    perfbench::RunApb1Advise(options, tracer, report);
  } else if (options.workload == "warlockd-mixed") {
    perfbench::RunWarlockdMixed(options, tracer, report);
  } else if (options.workload == "scenario-sweep") {
    perfbench::RunScenarioSweep(options, tracer, report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  PrintResult(options, report);
  return 0;
}
