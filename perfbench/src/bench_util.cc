#include "bench_util.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <cstdio>

#include "common/content_hash.h"

namespace perfbench {

void RunReport::Set(const std::string& name, double value,
                    const std::string& unit) {
  std::lock_guard<std::mutex> lock(mu_);
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void RunReport::Attempt(uint64_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  attempted_ += n;
}

void RunReport::Fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failed_;
  // Keep the first few messages; the count carries the rest.
  if (errors_.size() < 20) errors_.push_back(what);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return static_cast<bool>(in) || in.eof();
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  warlock::Rng rng(seed);
  return rng.Fork(salt).Next();
}

std::string Digest(const std::vector<std::string>& parts) {
  warlock::common::ContentHash hash;
  for (const std::string& part : parts) hash.Update(part);
  return hash.Hex();
}

double MedianSetupSeconds(int rounds, const std::function<void()>& setup,
                          const std::function<void()>& teardown) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  std::vector<double> seconds;
  for (int r = 0; r < rounds; ++r) {
    double best = 0.0;
    for (size_t i = 0; i < std::max<size_t>(1, cpus.size()); ++i) {
      if (teardown) teardown();
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        sched_setaffinity(0, sizeof(one), &one);
      }
      const int64_t start = NowNs();
      setup();
      const double s = static_cast<double>(NowNs() - start) / 1e9;
      best = i == 0 ? s : std::min(best, s);
    }
    seconds.push_back(best);
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
  return Percentile(seconds, 0.5);
}

std::vector<double> RunFor(double seconds,
                           const std::function<void(uint64_t)>& op) {
  std::vector<double> wall_ms;
  const int64_t start = NowNs();
  const int64_t budget = static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; i == 0 || NowNs() - start < budget; ++i) {
    const int64_t t0 = NowNs();
    op(i);
    wall_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  return wall_ms;
}

void SetEndToEnd(RunReport& report, double setup_s, double items,
                 double window_s, const std::vector<double>& wait_ms) {
  report.Set("setup_s", setup_s, "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("throughput_per_s", window_s > 0 ? items / window_s : 0.0,
             "1/s");
  report.Set("wait_ms_p50", Percentile(wait_ms, 0.50), "ms");
  report.Set("wait_ms_p90", Percentile(wait_ms, 0.90), "ms");
}

WhatIfKnobs DrawWhatIf(warlock::Rng& rng, uint32_t base_disks) {
  static constexpr uint64_t kFact[] = {4, 8, 16, 32};
  static constexpr uint64_t kBitmap[] = {1, 2, 4};
  WhatIfKnobs knobs;
  if (rng.Uniform(2) == 0) {
    const uint32_t choices[] = {std::max<uint32_t>(2, base_disks / 2),
                                base_disks, base_disks * 2};
    knobs.num_disks = choices[rng.Uniform(3)];
  } else {
    knobs.fact_granule = kFact[rng.Uniform(4)];
    knobs.bitmap_granule = kBitmap[rng.Uniform(3)];
  }
  return knobs;
}

}  // namespace perfbench
