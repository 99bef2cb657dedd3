#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

/** @file Small statistics and reporting helpers of the benchmark. */

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/**
 * The q-quantile (0 <= q <= 1) of `values` by linear interpolation
 * between closest ranks; 0 for an empty sample.
 */
double Quantile(std::vector<double> values, double q);

inline double
Median(const std::vector<double>& values)
{
  return Quantile(values, 0.5);
}

/**
 * The median over consecutive windows of `window` samples of each
 * window's q-quantile (a trailing partial window is dropped); the
 * q-quantile of all samples when there is no full window. A burst of
 * interference then moves one window's figure, not the result.
 */
double WindowedQuantile(const std::vector<double>& values, std::size_t window,
                        double q);

/**
 * The lowest over consecutive windows of `window` samples of each
 * window's q-quantile (a trailing partial window is dropped); the
 * q-quantile of all samples when there is no full window. Interference
 * only ever slows a window, so the fastest one tracks the code.
 */
double FastestWindowQuantile(const std::vector<double>& values,
                             std::size_t window, double q);

/** Peak resident set size of this process in MiB (VmHWM). */
double PeakRssMb();

/** One reported metric. */
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/** One correctness check and its outcome. */
struct Check {
  std::string name;
  bool passed = false;
  std::string detail;
};

/** Everything a workload run reports. */
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  /** Extra facts for the fingerprint line (sample counts, sizes). */
  std::vector<Metric> info;
  /** Wall time of the measured section. */
  double timed_wall_s = 0.0;
  /** Bytes the workload's hot loop streams per step (computed). */
  std::uint64_t working_set_bytes = 0;

  void Add(const std::string& name, double value, const std::string& unit)
  {
    metrics.push_back({name, value, unit});
  }
  void Info(const std::string& name, double value, const std::string& unit)
  {
    info.push_back({name, value, unit});
  }
  /**
   * Records a check. It counts no operation itself: the workload
   * fails the operation(s) the check covers.
   */
  void AddCheck(const std::string& name, bool passed,
                const std::string& detail)
  {
    checks.push_back({name, passed, detail});
  }
};

/** JSON number text with full precision (NaN/Inf become 0). */
std::string JsonNumber(double value);

/** JSON string literal of `text`, quotes included. */
std::string JsonQuoted(const std::string& text);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
