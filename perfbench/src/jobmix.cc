#include "jobmix.h"

#include <stdexcept>
#include <utility>

#include "runtime/batch_manifest.h"
#include "util/rng.h"

namespace perfbench {
namespace {

/**
 * Allen-Cahn on one line: the inline (`model_source=`) tenant. Its
 * u^3 term lowers to a cube-controlled LUT weight on the Q16.16 path.
 */
constexpr const char* kInlineScenario =
    "scenario allen_cahn; dt 0.05; param eps = 0.5; var u; "
    "d u/dt = eps * laplacian(u) + u - u^3; "
    "init u = gaussian_pulse(lo=-0.5, hi=0.5, sigma=0.1); "
    "lut cube range(-2, 2) bits 8; lut default range(-2, 2) bits 8";

constexpr const char* kZooScenarios[] = {"gray_scott", "fisher",
                                         "brusselator", "heat"};
constexpr std::size_t kGridSides[] = {32, 48, 64};
constexpr std::uint64_t kSteps[] = {64, 128};
constexpr std::uint64_t kSeedPool = 4;

}  // namespace

std::string
MixJob::SpecKey() const
{
  std::string key;
  for (const auto& [k, v] : keys) {
    if (k != "name") {
      key += k + "=" + v + "\n";
    }
  }
  return key;
}

std::vector<MixJob>
MakeJobMix(std::uint64_t seed, std::uint64_t stream, std::size_t count,
           const std::string& prefix, const std::string& zoo_dir)
{
  cenn::Rng rng = cenn::Rng(seed).Split(stream + 2);
  // The seed pool depends on the run seed only: every stream of one
  // run draws from the same few initial conditions.
  const std::uint64_t seed_base = cenn::Rng(seed).Split(1).NextU64() >> 8;
  std::vector<std::size_t> kinds(kMixBlock);
  std::vector<MixJob> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i % kMixBlock == 0) {
      // A fresh block: every kind once, Fisher-Yates shuffled.
      for (std::size_t k = 0; k < kMixBlock; ++k) {
        kinds[k] = k;
        std::swap(kinds[k], kinds[rng.NextBelow(k + 1)]);
      }
    }
    const std::size_t kind = kinds[i % kMixBlock];
    const std::size_t scenario = kind % 6;
    const std::size_t side = kGridSides[(kind / 6) % 3];
    const std::uint64_t steps = kSteps[(kind / 18) % 2];
    const bool fixed = kind / 36 < 3;
    MixJob job;
    job.tenant = "t";
    job.tenant += std::to_string(rng.NextBelow(kTenants));
    job.keys.push_back({"name", prefix + std::to_string(i)});
    if (scenario < 4) {
      job.keys.push_back({"model_file", zoo_dir + "/" +
                                            kZooScenarios[scenario] +
                                            ".cenn"});
    } else if (scenario == 4) {
      job.keys.push_back({"model", "reaction_diffusion"});
    } else {
      job.keys.push_back({"model_source", kInlineScenario});
    }
    job.keys.push_back({"rows", std::to_string(side)});
    job.keys.push_back({"cols", std::to_string(side)});
    job.keys.push_back({"steps", std::to_string(steps)});
    job.keys.push_back({"exec", fixed ? "soa:fixed:simd" : "soa:double:simd"});
    job.keys.push_back(
        {"seed", std::to_string(seed_base + rng.NextBelow(kSeedPool))});
    job.keys.push_back({"checkpoint_every", "64"});
    job.cell_updates = side * side * steps;
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::string
ManifestText(const std::vector<MixJob>& jobs)
{
  std::string text;
  for (const MixJob& job : jobs) {
    // A model key opens a job, so it goes first.
    for (const auto& [k, v] : job.keys) {
      if (k.rfind("model", 0) == 0) {
        text += k + "=" + v + "\n";
      }
    }
    for (const auto& [k, v] : job.keys) {
      if (k.rfind("model", 0) != 0) {
        text += k + "=" + v + "\n";
      }
    }
    text += "\n";
  }
  return text;
}

cenn::JobSpec
ToJobSpec(const MixJob& job)
{
  cenn::JobSpecBuilder builder;
  for (const auto& [k, v] : job.keys) {
    builder.Apply(k, v);
  }
  std::vector<cenn::JobSpecError> errors = builder.Errors();
  cenn::ValidateJobSpec(builder.Spec(), &errors);
  if (!errors.empty()) {
    throw std::runtime_error("bad job spec: " +
                             cenn::FormatJobSpecErrors(errors));
  }
  return builder.Spec();
}

std::uint64_t
ReferenceCache::Checksum(const MixJob& job)
{
  const std::string key = job.SpecKey();
  if (auto it = checksums_.find(key); it != checksums_.end()) {
    return it->second;
  }
  const cenn::JobSpec spec = ToJobSpec(job);
  const std::uint64_t job_id = checksums_.size() + 1;
  ScopedSpan root(tracer_, "ref.job", -1, job_id);

  cenn::SessionConfig config;
  config.name = "ref" + std::to_string(job_id);
  config.exec = spec.exec;
  config.target_steps = spec.steps;
  OpenedSession opened = OpenSession(spec, spec.seed, config, tracer_,
                                     root.Id(), job_id, samples_);
  cenn::SolverSession& session = *opened.session;

  const std::int64_t t0 = NowNs();
  session.StepN(spec.steps);
  const std::int64_t t1 = NowNs();
  tracer_->Record("kernels.stepn", t0, t1, root.Id(), job_id);
  const double cells = static_cast<double>(job.cell_updates);
  samples_->step_cell_updates += cells;
  samples_->AddSession(session, *opened.registry, cells,
                       static_cast<double>(spec.steps));
  const std::uint64_t checksum = session.StateChecksum();

  // Checkpoint round trip on the small grid: times the program layer
  // at serve/batch sizes. Restoring the state just saved changes
  // nothing, which the checksum re-read confirms.
  const std::string path = work_dir_ + "/ref.ckpt";
  const std::int64_t w0 = NowNs();
  const bool saved = session.SaveCheckpoint(path);
  const std::int64_t w1 = NowNs();
  const bool restored = saved && session.TryRestoreFromFile(path);
  const std::int64_t w2 = NowNs();
  if (!restored || session.StateChecksum() != checksum) {
    throw std::runtime_error("reference checkpoint round trip failed for " +
                             key);
  }
  tracer_->Record("program.checkpoint_write", w0, w1, root.Id(), job_id);
  tracer_->Record("program.checkpoint_read", w1, w2, root.Id(), job_id);
  samples_->checkpoint_write_ms.push_back(Ms(w0, w1));
  samples_->checkpoint_read_ms.push_back(Ms(w1, w2));
  samples_->checkpoint_bytes.push_back(FileBytes(path));

  checksums_.emplace(key, checksum);
  return checksum;
}

}  // namespace perfbench
