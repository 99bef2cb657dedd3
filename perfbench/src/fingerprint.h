#ifndef PERFBENCH_FINGERPRINT_H_
#define PERFBENCH_FINGERPRINT_H_

/**
 * @file
 * Host and run fingerprint printed beside every benchmark record: the
 * resolved SIMD ISA, core count, per-level cache sizes, the build type
 * and flags, the seed, and the workload's working set placed against
 * the cache level it fits in (the roofline must compare against the
 * memory level the working set lives in).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

/** Data/unified cache sizes of cpu0 in bytes (0 = unknown). */
struct CacheSizes {
  std::uint64_t l1d = 0;
  std::uint64_t l2 = 0;
  std::uint64_t l3 = 0;
};

/** Reads cpu0's cache hierarchy from sysfs. */
CacheSizes HostCaches();

/** "L1", "L2", "L3" or "DRAM": the smallest level holding `bytes`. */
std::string MemoryLevel(std::uint64_t bytes, const CacheSizes& caches);

/** Host-wide CPU time from /proc/stat, in clock ticks. */
struct CpuTimes {
  /** Time the hypervisor ran something else while a vCPU was ready. */
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};

/** The current host-wide CPU times (zeros when unreadable). */
CpuTimes HostCpuTimes();

/**
 * One JSON object line: host, build, seed, the working set and its
 * memory level, plus the workload's `info` facts.
 */
std::string FingerprintJson(const std::string& workload, std::uint64_t seed,
                            bool traced, std::uint64_t working_set_bytes,
                            const std::vector<Metric>& info);

}  // namespace perfbench

#endif  // PERFBENCH_FINGERPRINT_H_
