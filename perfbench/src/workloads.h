#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The four benchmark workloads. Each drives the solver stack through
 * its public API, times the calls into each layer from here, checks
 * its outputs against a reference computed outside the timed section
 * and fills a RunResult with every end-to-end and per-layer metric it
 * carries (see perfbench/README.md for the map between them).
 *
 *  solve  one long Q16.16 Gray-Scott run at 512^2, 2 shards, with
 *         periodic checkpoints and a final restore;
 *  arch   the cycle-level ArchSimulator on navier_stokes 128^2 at the
 *         paper's design point (L1 = 4 blocks, L2 = 32 entries, DDR3);
 *  serve  an open-loop Poisson stream of small jobs into an in-process
 *         SolverService behind a loopback TcpServer;
 *  batch  BatchRunner::RunAll over the same job mix, closed loop.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

/** What one benchmark process runs. */
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /** Length of the measured section in seconds. */
  double seconds = 10.0;
  bool trace = false;
  /** Self-test sizes: tiny grids and few jobs. */
  bool tiny = false;
  /** Fresh scratch directory of this run (removed by the caller). */
  std::string work_dir;
  /** Directory holding the scenario zoo (*.cenn). */
  std::string zoo_dir = "zoo";
  /**
   * Name of a correctness check whose expected value is deliberately
   * flipped (self-test: every check must be able to fail).
   */
  std::string corrupt_check;
};

/** Runs `options.workload`; throws std::runtime_error on misuse. */
RunResult RunWorkload(const Options& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
