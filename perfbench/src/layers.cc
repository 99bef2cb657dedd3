#include "layers.h"

#include <algorithm>
#include <filesystem>

#include "runtime/engine_factory.h"

namespace perfbench {
namespace {

/** The first registry stat whose name ends with `suffix` (0 = none). */
double
ValueBySuffix(const cenn::StatRegistry& registry, const std::string& suffix)
{
  for (const std::string& name : registry.Names()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      return registry.Value(name);
    }
  }
  return 0.0;
}

double
Ratio(double num, double den)
{
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

void
LayerSamples::AddSession(const cenn::SolverSession& session,
                         const cenn::StatRegistry& registry,
                         double cell_updates, double steps)
{
  const cenn::ShardPhaseTimings& timings = session.PhaseTimings();
  for (int k = 0; k < timings.MaxShards(); ++k) {
    const auto shard = timings.ShardAt(static_cast<std::size_t>(k));
    shard_busy_ns += static_cast<double>(shard.refresh_ns + shard.step_ns);
    shard_wait_ns += static_cast<double>(shard.wait_ns);
  }
  publish_ns += static_cast<double>(timings.PublishNs());
  publish_count += static_cast<double>(timings.PublishCount());

  const auto& lut = session.LutTraffic();
  if (lut.Accesses() > 0) {
    lut_accesses += static_cast<double>(lut.Accesses());
    lut_exact_hits += static_cast<double>(lut.ExactHits());
    lut_cell_updates += cell_updates;
  }

  const double bytes =
      ValueBySuffix(registry, "kernels.traffic.total_bytes");
  if (bytes > 0.0) {
    traffic_bytes += bytes;
    traffic_flops += ValueBySuffix(registry, "kernels.traffic.flops");
    traffic_cell_updates += cell_updates;
    max_bytes_per_step = std::max(max_bytes_per_step, bytes / steps);
  }
}

OpenedSession
OpenSession(const cenn::JobSpec& spec, std::uint64_t seed,
            cenn::SessionConfig config, Tracer* tracer, std::int64_t parent,
            std::uint64_t job, LayerSamples* samples,
            const EngineBuilder& build)
{
  OpenedSession out;
  const std::int64_t t0 = NowNs();
  out.model = cenn::ResolveModelSource(spec, seed);
  const std::int64_t t1 = NowNs();
  std::unique_ptr<cenn::Engine> engine =
      build ? build(out.model.program)
            : cenn::BuildEngine(out.model.program, spec.exec);
  const std::int64_t t2 = NowNs();
  out.registry = std::make_unique<cenn::StatRegistry>();
  out.session = std::make_unique<cenn::SolverSession>(std::move(engine),
                                                      std::move(config));
  out.session->BindStats(out.registry.get());
  const std::int64_t t3 = NowNs();

  tracer->Record("lang.resolve", t0, t1, parent, job);
  tracer->Record("runtime.engine_build", t1, t2, parent, job);
  tracer->Record("runtime.session_create", t2, t3, parent, job);
  samples->resolve_ms.push_back(Ms(t0, t1));
  samples->engine_build_ms.push_back(Ms(t1, t2));
  samples->session_create_ms.push_back(Ms(t2, t3));
  return out;
}

void
EmitLayerMetrics(const LayerSamples& s,
                 const std::map<std::string, double>& self_ns,
                 RunResult* result)
{
  const auto stepn = self_ns.find("kernels.stepn");
  result->Add("lang.resolve_ms", Median(s.resolve_ms), "ms");
  result->Add("lang.resolve_count", static_cast<double>(s.resolve_ms.size()),
              "count");
  result->Add("runtime.engine_build_ms", Median(s.engine_build_ms), "ms");
  result->Add("runtime.session_create_ms", Median(s.session_create_ms),
              "ms");
  result->Add("kernels.step_ns_per_cell",
              stepn == self_ns.end()
                  ? 0.0
                  : Ratio(stepn->second, s.step_cell_updates),
              "ns");
  result->Add("runtime.barrier_wait_frac",
              Ratio(s.shard_wait_ns, s.shard_busy_ns + s.shard_wait_ns),
              "ratio");
  result->Add("runtime.publish_ns_per_step",
              Ratio(s.publish_ns, s.publish_count), "ns");
  result->Add("lut.interp.accesses_per_cell",
              Ratio(s.lut_accesses, s.lut_cell_updates), "count");
  result->Add("lut.interp.hit_rate", Ratio(s.lut_exact_hits, s.lut_accesses),
              "ratio");
  result->Add("kernels.traffic.bytes_per_cell",
              Ratio(s.traffic_bytes, s.traffic_cell_updates), "B");
  result->Add("kernels.traffic.flops_per_byte",
              Ratio(s.traffic_flops, s.traffic_bytes), "flop/B");
  result->Add("program.checkpoint_write_ms", Median(s.checkpoint_write_ms),
              "ms");
  result->Add("program.checkpoint_read_ms", Median(s.checkpoint_read_ms),
              "ms");
  result->Add("program.checkpoint_bytes", Median(s.checkpoint_bytes), "B");
}

double
FileBytes(const std::string& path)
{
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

}  // namespace perfbench
