#include "fingerprint.h"

#include <fstream>
#include <sstream>
#include <thread>

#include "kernels/soa_simd.h"

namespace perfbench {
namespace {

std::string
ReadLine(const std::string& path)
{
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/** "48K" / "2048K" / "105M" -> bytes. */
std::uint64_t
ParseSize(const std::string& text)
{
  std::uint64_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::uint64_t>(text[i] - '0');
    ++i;
  }
  if (i < text.size() && text[i] == 'K') {
    value <<= 10;
  } else if (i < text.size() && text[i] == 'M') {
    value <<= 20;
  }
  return value;
}

}  // namespace

CpuTimes
HostCpuTimes()
{
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream fields(ReadLine("/proc/stat"));
  std::string label;
  fields >> label;
  CpuTimes times;
  std::uint64_t value = 0;
  for (int i = 0; fields >> value; ++i) {
    times.total += value;
    if (i == 7) {
      times.steal = value;
    }
  }
  return times;
}

CacheSizes
HostCaches()
{
  CacheSizes caches;
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    const std::string level = ReadLine(dir + "/level");
    if (level.empty()) {
      break;
    }
    const std::string type = ReadLine(dir + "/type");
    const std::uint64_t size = ParseSize(ReadLine(dir + "/size"));
    if (level == "1" && type == "Data") {
      caches.l1d = size;
    } else if (level == "2") {
      caches.l2 = size;
    } else if (level == "3") {
      caches.l3 = size;
    }
  }
  return caches;
}

std::string
MemoryLevel(std::uint64_t bytes, const CacheSizes& caches)
{
  if (bytes <= caches.l1d) {
    return "L1";
  }
  if (bytes <= caches.l2) {
    return "L2";
  }
  if (bytes <= caches.l3) {
    return "L3";
  }
  return "DRAM";
}

std::string
FingerprintJson(const std::string& workload, std::uint64_t seed,
                bool traced, std::uint64_t working_set_bytes,
                const std::vector<Metric>& info)
{
  const CacheSizes caches = HostCaches();
  std::ostringstream out;
  out << "{\"fingerprint\":{\"workload\":" << JsonQuoted(workload)
      << ",\"seed\":" << seed << ",\"traced\":" << (traced ? "true" : "false")
      << ",\"simd_isa\":" << JsonQuoted(cenn::SimdIsaName())
      << ",\"cores\":" << std::thread::hardware_concurrency()
      << ",\"cache_bytes\":{\"l1d\":" << caches.l1d << ",\"l2\":" << caches.l2
      << ",\"l3\":" << caches.l3 << "}"
      << ",\"build_type\":" << JsonQuoted(PERFBENCH_BUILD_TYPE)
      << ",\"cxx_flags\":" << JsonQuoted(PERFBENCH_CXX_FLAGS)
      << ",\"compiler\":" << JsonQuoted(PERFBENCH_COMPILER)
      << ",\"working_set_bytes\":" << working_set_bytes
      << ",\"working_set_level\":"
      << JsonQuoted(MemoryLevel(working_set_bytes, caches)) << ",\"info\":{";
  for (std::size_t i = 0; i < info.size(); ++i) {
    out << (i == 0 ? "" : ",") << JsonQuoted(info[i].name) << ":{\"value\":"
        << JsonNumber(info[i].value) << ",\"unit\":" << JsonQuoted(info[i].unit)
        << "}";
  }
  out << "}}}";
  return out.str();
}

}  // namespace perfbench
