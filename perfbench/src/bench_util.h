#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trace.h"

namespace perfbench {

/// What one benchmark invocation was asked to do.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads of the workload (advisor pool, sweep fan-out, or the
  /// client + server threads of the daemon workload); never above `nproc`.
  unsigned threads = 1;
  unsigned nproc = 1;
  /// Root of the checkout: inputs are read from it, traces written below it.
  std::string root = ".";
  /// Only generate the inputs and report their digest.
  bool digest_only = false;
};

/// A named measurement with its unit, in output order.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one invocation reports. Thread-safe failure recording, since
/// workload threads check their own outputs.
class RunReport {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts one attempted operation that must be checked.
  void Attempt(uint64_t n = 1);
  /// Records a failed operation or a failed output check.
  void Fail(const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }

  std::string input_digest;

 private:
  mutable std::mutex mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<Metric> metrics_;
};

/// Linear-interpolated percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// Peak resident set of this process in MiB.
double PeakRssMb();

/// Reads a whole file; false when it cannot be read.
bool ReadFile(const std::string& path, std::string* out);

/// Derives an independent 64-bit seed from (seed, salt).
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// 16-hex-digit content digest of an ordered list of byte strings.
std::string Digest(const std::vector<std::string>& parts);

/// Set-up time in seconds: the median over `rounds` rounds, where a round
/// runs `setup` once on each CPU the process may use and keeps the fastest;
/// `teardown` (untimed) runs before each set-up to undo the previous one.
/// On a shared host a single-threaded set-up of a few ms ran up to twice as
/// long on a CPU whose sibling thread was busy, so one sample, or the median
/// of samples taken on one CPU, swung by half from run to run. Workloads
/// call it after their timed window, when the process is warm.
double MedianSetupSeconds(int rounds, const std::function<void()>& setup,
                          const std::function<void()>& teardown = {});

/// Closed-loop timing helper: calls `op(i)` for i = 0, 1, ... until
/// `seconds` have elapsed (always at least once) and returns each call's
/// wall time in ms.
std::vector<double> RunFor(double seconds,
                           const std::function<void(uint64_t)>& op);

/// The five end-to-end metrics every workload reports.
void SetEndToEnd(RunReport& report, double setup_s, double items,
                 double window_s, const std::vector<double>& wait_ms);

/// Knobs of one interactive what-if, drawn from small domains so that a
/// stream of them repeats and exercises the session's delta memo.
struct WhatIfKnobs {
  uint32_t num_disks = 0;  ///< 0 = unchanged.
  uint64_t fact_granule = 0;  ///< 0 = searched.
  uint64_t bitmap_granule = 0;
};
WhatIfKnobs DrawWhatIf(warlock::Rng& rng, uint32_t base_disks);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
