#ifndef PERFBENCH_JOBMIX_H_
#define PERFBENCH_JOBMIX_H_

/**
 * @file
 * The seeded small-job mix shared by the `serve` and `batch`
 * workloads, and the plain-SolverSession reference each job's
 * checksum is checked against (the serve == batch contract).
 *
 * A job is a set of manifest keys: one of the zoo scenarios
 * (`model_file=`), the hand-coded reaction_diffusion model
 * (`model=`) or an inline scenario (`model_source=`), on a 32² to 64²
 * grid with checkpoint_every=64. Three jobs in four run
 * soa:fixed:simd (the paper's Q16.16 datapath) and one in four
 * soa:double:simd. Seeds come from a small pool, so specs repeat the
 * way tenants rerun models and the LutStore sees shared tables.
 *
 * The mix is stratified: every block of kMixBlock jobs holds each
 * (scenario, grid, steps, precision) kind exactly once, in a seeded
 * order. Runs with different seeds therefore offer the same work and
 * differ only in order, tenants, initial conditions and arrival
 * times. Job costs span about 20x, so a mix drawn kind by kind at
 * random moved the latency median by 10-20% between seeds.
 */

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "runtime/job_spec.h"
#include "trace.h"

namespace perfbench {

/** One generated job. */
struct MixJob {
  std::string tenant;
  /** Manifest keys in emission order; "name" is unique per job. */
  std::vector<std::pair<std::string, std::string>> keys;
  /** rows * cols * steps: the cell updates the job performs. */
  std::uint64_t cell_updates = 0;

  /** The keys minus "name": equal for jobs with identical results. */
  std::string SpecKey() const;
};

/** Tenants the serve workload spreads its jobs over. */
inline constexpr int kTenants = 3;

/**
 * Jobs per stratified block: 6 scenarios x 3 grids x 2 step counts x
 * 4 precision lanes (3 fixed, 1 double).
 */
inline constexpr std::size_t kMixBlock = 144;

/**
 * `count` jobs from stream `stream` of the mix for run seed `seed`;
 * names are "<prefix><index>". Only a trailing partial block differs
 * in composition between seeds. `zoo_dir` locates the scenario files.
 */
std::vector<MixJob> MakeJobMix(std::uint64_t seed, std::uint64_t stream,
                               std::size_t count, const std::string& prefix,
                               const std::string& zoo_dir);

/** The jobs as batch-manifest text. */
std::string ManifestText(const std::vector<MixJob>& jobs);

/** The job's keys applied and validated; throws on a bad spec. */
cenn::JobSpec ToJobSpec(const MixJob& job);

/**
 * Reference checksums for the mix: each distinct spec is run once on
 * a plain SolverSession (resolve, build, StepN to target,
 * StateChecksum), with a checkpoint write/read round trip so the
 * program layer is timed on the small grids too. Spans go to
 * `tracer`; layer timings accumulate in `samples`.
 */
class ReferenceCache
{
  public:
    ReferenceCache(Tracer* tracer, LayerSamples* samples,
                   std::string work_dir)
        : tracer_(tracer), samples_(samples), work_dir_(std::move(work_dir))
    {
    }

    /** The reference checksum of `job` (computed on first use). */
    std::uint64_t Checksum(const MixJob& job);

    /** Distinct specs run so far. */
    std::size_t Size() const { return checksums_.size(); }

  private:
    Tracer* tracer_;
    LayerSamples* samples_;
    std::string work_dir_;
    std::map<std::string, std::uint64_t> checksums_;
};

}  // namespace perfbench

#endif  // PERFBENCH_JOBMIX_H_
