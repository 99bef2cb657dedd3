#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

/**
 * @file
 * The resolve -> engine build -> session pipeline every workload opens
 * its solver through, timed per layer, and the per-layer samples the
 * workloads share: timings of the resolve / engine-build /
 * session-create / StepN / checkpoint calls and the counters a
 * SolverSession exposes publicly (PhaseTimings, LutTraffic, the SoA
 * traffic model bound into a StatRegistry).
 */

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/stat_registry.h"
#include "runtime/job_spec.h"
#include "runtime/model_source.h"
#include "runtime/solver_session.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

/** Layer timings and counters gathered around solver calls. */
struct LayerSamples {
  std::vector<double> resolve_ms;
  std::vector<double> engine_build_ms;
  std::vector<double> session_create_ms;
  std::vector<double> checkpoint_write_ms;
  std::vector<double> checkpoint_read_ms;
  std::vector<double> checkpoint_bytes;
  /** Cell updates under the "kernels.stepn" spans. */
  double step_cell_updates = 0.0;
  /** ShardPhaseTimings: refresh + step time, barrier wait, publish. */
  double shard_busy_ns = 0.0;
  double shard_wait_ns = 0.0;
  double publish_ns = 0.0;
  double publish_count = 0.0;
  /** Off-chip LUT interpolations seen by fixed-point sessions. */
  double lut_accesses = 0.0;
  double lut_exact_hits = 0.0;
  double lut_cell_updates = 0.0;
  /** Computed SoA traffic model (bytes read + written, flops). */
  double traffic_bytes = 0.0;
  double traffic_flops = 0.0;
  double traffic_cell_updates = 0.0;
  /** Largest computed traffic per step of one session (working set). */
  double max_bytes_per_step = 0.0;

  /**
   * Adds a finished session's public counters. `registry` is the one
   * the session was bound into; the session executed `steps` steps
   * of `cell_updates` / `steps` cells each.
   */
  void AddSession(const cenn::SolverSession& session,
                  const cenn::StatRegistry& registry, double cell_updates,
                  double steps);
};

/**
 * Emits the per-layer metrics every workload carries: lang.resolve_*,
 * runtime.engine_build_ms, runtime.session_create_ms,
 * kernels.step_ns_per_cell (self time of the "kernels.stepn" spans in
 * `self_ns`, from Tracer::SelfTimeNs), runtime.barrier_wait_frac, runtime.publish_ns_per_step,
 * lut.interp.*, kernels.traffic.* and program.checkpoint_*.
 */
void EmitLayerMetrics(const LayerSamples& samples,
                      const std::map<std::string, double>& self_ns,
                      RunResult* result);

/** Builds the engine for a resolved program. */
using EngineBuilder =
    std::function<std::unique_ptr<cenn::Engine>(const cenn::SolverProgram&)>;

/** A session opened through the pipeline, with its stat registry. */
struct OpenedSession {
  cenn::ResolvedModel model;
  /** Declared before the session so the session is destroyed first. */
  std::unique_ptr<cenn::StatRegistry> registry;
  std::unique_ptr<cenn::SolverSession> session;
};

/**
 * ResolveModelSource(spec, seed), then `build` (BuildEngine over
 * spec.exec when empty), then the SolverSession constructor, each
 * timed into `samples` and recorded as a span (lang.resolve,
 * runtime.engine_build, runtime.session_create) under `parent` with
 * job id `job`. The session's stats are bound into its registry.
 */
OpenedSession OpenSession(const cenn::JobSpec& spec, std::uint64_t seed,
                          cenn::SessionConfig config, Tracer* tracer,
                          std::int64_t parent, std::uint64_t job,
                          LayerSamples* samples,
                          const EngineBuilder& build = {});

/** Milliseconds between two NowNs() readings. */
inline double
Ms(std::int64_t start_ns, std::int64_t end_ns)
{
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

/** Size of a file in bytes (0 when missing). */
double FileBytes(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
