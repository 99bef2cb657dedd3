/**
 * @file
 * perfbench — the repository benchmark driver binary (run through
 * perfbench/run.py, which builds it and caps its wall time).
 *
 *   perfbench --workload solve|arch|serve|batch --seed N --seconds S
 *             --trace 0|1 --work-dir DIR [--trace-out FILE]
 *             [--zoo-dir DIR] [--tiny] [--corrupt-check NAME]
 *
 * Prints a fingerprint line, then as its last stdout line one JSON
 * object {"correct", "attempted", "failed", "metrics"} holding every
 * metric the workload measured; run.py checks them against
 * BENCHMARK.json and picks the end-to-end or per-layer set. Exits 1
 * naming the failed check when any correctness check fails, 2 on a
 * usage or run error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "fingerprint.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

[[noreturn]] void
Usage(const std::string& message)
{
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::exit(2);
}

}  // namespace

int
main(int argc, char** argv)
{
  perfbench::Options options;
  std::string trace_out;
  bool have_seed = false;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        Usage("missing value for " + arg);
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        trace = std::stoi(value());
      } else if (arg == "--work-dir") {
        options.work_dir = value();
      } else if (arg == "--trace-out") {
        trace_out = value();
      } else if (arg == "--zoo-dir") {
        options.zoo_dir = value();
      } else if (arg == "--corrupt-check") {
        options.corrupt_check = value();
      } else if (arg == "--tiny") {
        options.tiny = true;
      } else {
        Usage("unknown argument '" + arg + "'");
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg);
    }
  }
  if (options.workload.empty() || !have_seed || options.work_dir.empty() ||
      (trace != 0 && trace != 1) || !(options.seconds > 0.0)) {
    Usage("need --workload, --seed, --seconds > 0, --trace 0|1 and "
          "--work-dir");
  }
  options.trace = trace == 1;

  perfbench::Tracer tracer(options.trace);
  RunResult result;
  const perfbench::CpuTimes cpu_before = perfbench::HostCpuTimes();
  try {
    result = perfbench::RunWorkload(options, &tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: workload '%s' failed to run: %s\n",
                 options.workload.c_str(), e.what());
    return 2;
  }
  // On a shared host, stolen CPU time explains a run that reads slow.
  const perfbench::CpuTimes cpu_after = perfbench::HostCpuTimes();
  result.Info("host_steal_frac",
              cpu_after.total > cpu_before.total
                  ? static_cast<double>(cpu_after.steal - cpu_before.steal) /
                        static_cast<double>(cpu_after.total -
                                            cpu_before.total)
                  : 0.0,
              "ratio");
  if (options.trace) {
    const double span_cost_ns = perfbench::CalibrateSpanCostNs();
    result.Add("trace.overhead_frac",
               static_cast<double>(tracer.Size()) * span_cost_ns /
                   (result.timed_wall_s * 1e9),
               "ratio");
    result.Info("spans", static_cast<double>(tracer.Size()), "count");
    result.Info("span_cost_ns", span_cost_ns, "ns");
    if (!trace_out.empty() && !tracer.WriteChromeTrace(trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
      return 2;
    }
  }

  std::cout << perfbench::FingerprintJson(options.workload, options.seed,
                                          options.trace,
                                          result.working_set_bytes,
                                          result.info)
            << "\n";

  bool correct = true;
  for (const perfbench::Check& check : result.checks) {
    std::fprintf(stderr, "check %-30s %s\n", check.name.c_str(),
                 check.passed ? "pass" : "FAIL");
    if (!check.passed) {
      correct = false;
      std::fprintf(stderr, "perfbench: workload '%s' failed check '%s': %s\n",
                   options.workload.c_str(), check.name.c_str(),
                   check.detail.c_str());
    }
  }

  std::ostringstream metrics;
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::fprintf(stderr, "%-34s %16.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
    metrics << (i == 0 ? "" : ",") << perfbench::JsonQuoted(m.name)
            << ":{\"value\":" << perfbench::JsonNumber(m.value)
            << ",\"unit\":" << perfbench::JsonQuoted(m.unit) << "}";
  }
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted
            << ",\"failed\":" << result.failed << ",\"metrics\":{"
            << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}
