#include "workloads.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <filesystem>
#include <iterator>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "arch/simulator.h"
#include "jobmix.h"
#include "layers.h"
#include "lut/lut_store.h"
#include "runtime/batch_manifest.h"
#include "runtime/batch_runner.h"
#include "serve/job_registry.h"
#include "serve/json.h"
#include "serve/service.h"
#include "serve/tcp_server.h"
#include "serve/wire.h"
#include "util/rng.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// ---- sizing ---------------------------------------------------------

/** Workload sizes; the defaults are the measured sizes. */
struct Sizing {
  /**
   * Set-up is short, so it is repeated: setup_groups groups of
   * setup_group_size set-ups, setup_gap apart, and setup_s is the
   * median of the fastest group. The shared reference host switches a
   * vCPU between a fast and a slow mode every few hundred milliseconds
   * (an `arch` set-up took 0.65 or 1.1 ms), so the median of
   * back-to-back set-ups read one mode or the other and moved by up to
   * 50% between runs; groups spread over more than a second each catch
   * a fast stretch. `serve` sets up in about 0.1 ms, so its groups are
   * larger.
   */
  int setup_groups = 24;
  int setup_group_size = 9;
  int serve_setup_group_size = 25;
  std::chrono::milliseconds setup_gap{50};

  std::size_t solve_side = 512;
  /** Steps per StepN call in `solve`; a latency sample is one call / 2. */
  std::uint64_t solve_chunk = 2;
  /** Steps between periodic SaveCheckpoint calls in `solve`. */
  std::uint64_t solve_checkpoint_every = 64;
  /** Slice boundary at which `solve` is compared to the functional engine. */
  std::uint64_t solve_check_steps = 4;

  std::size_t arch_side = 128;
  /** `arch` steps after which the simulated counters are captured. */
  std::uint64_t arch_counter_steps = 32;
  /** `arch` steps per window; its rates come from the fastest one. */
  std::uint64_t arch_window_steps = 8;

  /**
   * Samples per window of the `solve` step latencies: the p50 is the
   * median of the windows' p50s, the p99 that of the quietest window.
   * Interference adds spikes to about 2% of the steps, more than the
   * 1% a p99 over the whole run could absorb.
   */
  std::size_t latency_window = 200;

  /**
   * Offered serve load in jobs/s: about 30% of the closed-loop `batch`
   * capacity of the same job mix with 2 pool workers (150-185 jobs/s
   * on the 4-core reference host). At half the capacity, queueing
   * amplified the shared host's run-to-run noise past the latency
   * bounds.
   */
  double serve_rate = 50.0;

  /** One stratified block of the mix per RunAll round. */
  std::size_t batch_jobs_per_round = kMixBlock;
};

/**
 * `arch` simulates one fixed input, the model seed of the Fig. 12-14
 * benches: the simulated counts must be identical across all runs,
 * and navier_stokes' seeded noise changes the LUT traffic (and the
 * host time per step by up to 1.6x between seeds).
 */
constexpr std::uint64_t kArchModelSeed = 42;

/** Pool workers of `serve` and `batch` (the host has 4 cores). */
constexpr int kPoolThreads = 2;

/** The measured sizes, or tiny ones for the self-test. */
Sizing
SizingFor(const Options& o)
{
  Sizing z;
  if (o.tiny) {
    z.setup_groups = 2;
    z.setup_group_size = 1;
    z.serve_setup_group_size = 1;
    z.setup_gap = std::chrono::milliseconds(0);
    z.solve_side = 64;
    z.solve_checkpoint_every = 8;
    z.solve_check_steps = 2;
    z.arch_side = 16;
    z.arch_counter_steps = 4;
    z.arch_window_steps = 2;
    z.latency_window = 10;
    z.serve_rate = 20.0;
    z.batch_jobs_per_round = 6;
  }
  return z;
}

// ---- helpers --------------------------------------------------------

/** The timed set-ups of one run (see Sizing::setup_groups). */
struct SetUps {
  /** Every set-up's seconds, group by group. */
  std::vector<double> seconds;
  int group_size = 1;

  /** setup_s: the median of the fastest group. */
  double Seconds() const
  {
    return FastestWindowQuantile(
        seconds, static_cast<std::size_t>(group_size), 0.5);
  }
};

/**
 * Times z.setup_groups groups of `group_size` set-ups. `reset()` drops
 * the previous set-up outside the timed part; `set_up(rep)` is the
 * timed part.
 */
template <typename Reset, typename SetUp>
SetUps
TimeSetUps(const Sizing& z, int group_size, Reset&& reset, SetUp&& set_up)
{
  SetUps out;
  out.group_size = group_size;
  for (int group = 0; group < z.setup_groups; ++group) {
    if (group > 0) {
      std::this_thread::sleep_for(z.setup_gap);
    }
    for (int i = 0; i < group_size; ++i) {
      reset();
      const std::int64_t t0 = NowNs();
      set_up(static_cast<int>(out.seconds.size()));
      out.seconds.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  }
  return out;
}

/** The expected value of a check, flipped when the self-test asks. */
std::uint64_t
Expect(const Options& o, const std::string& check, std::uint64_t value)
{
  return o.corrupt_check == check ? value ^ 1u : value;
}

cenn::JobSpec
SpecOf(std::vector<std::pair<std::string, std::string>> keys)
{
  MixJob job;
  job.keys = std::move(keys);
  return ToJobSpec(job);
}

std::int64_t
SecondsToNs(double seconds)
{
  return static_cast<std::int64_t>(seconds * 1e9);
}

/** Global LutStore counters, for per-run deltas. */
struct LutStoreCounts {
  double builds = 0.0;
  double shared = 0.0;

  static LutStoreCounts Now()
  {
    const cenn::LutStore& store = cenn::LutStore::Global();
    return {static_cast<double>(store.Builds()),
            static_cast<double>(store.SharedAcquires())};
  }
};

void
EmitLutStore(const LutStoreCounts& before, const LutStoreCounts& after,
             double jobs, RunResult* r)
{
  const double builds = after.builds - before.builds;
  const double shared = after.shared - before.shared;
  r->Add("lut.store.builds_per_job", jobs > 0 ? builds / jobs : 0.0,
         "count");
  r->Add("lut.store.hit_ratio",
         builds + shared > 0 ? shared / (builds + shared) : 0.0, "ratio");
}

/**
 * setup_s (median of the fastest group of set-ups), the two rates
 * (cell updates and operations per second) and the latency percentiles
 * (each workload reads peak_rss_mb itself at the end of its timed
 * section).
 */
void
EmitEndToEnd(const SetUps& setup, double cell_updates_per_s,
             double operations_per_s, double latency_p50_ms,
             double latency_p99_ms, std::size_t latency_samples,
             RunResult* r)
{
  r->Add("setup_s", setup.Seconds(), "s");
  r->Add("cell_updates_per_s", cell_updates_per_s / 1e6, "Mcell/s");
  r->Add("jobs_per_s", operations_per_s, "jobs/s");
  r->Add("latency_p50_ms", latency_p50_ms, "ms");
  r->Add("latency_p99_ms", latency_p99_ms, "ms");
  r->Info("latency_samples", static_cast<double>(latency_samples), "count");
  r->Info("setup_reps", static_cast<double>(setup.seconds.size()), "count");
}

// ---- solve ----------------------------------------------------------

RunResult
RunSolve(const Options& o, Tracer* tracer)
{
  const Sizing z = SizingFor(o);
  RunResult r;
  const std::string side = std::to_string(z.solve_side);
  const cenn::JobSpec spec =
      SpecOf({{"model_file", o.zoo_dir + "/gray_scott.cenn"},
              {"rows", side},
              {"cols", side},
              {"exec", "soa:fixed:simd:shards=2"},
              {"seed", std::to_string(o.seed)}});
  cenn::SessionConfig config;
  config.name = "solve";
  config.exec = spec.exec;

  LayerSamples layers;
  OpenedSession opened;
  const LutStoreCounts lut_before = LutStoreCounts::Now();
  const SetUps setup = TimeSetUps(
      z, z.setup_group_size,
      // Drop the previous set-up's LUT handles.
      [&] { opened = OpenedSession{}; },
      [&](int rep) {
        opened = OpenSession(spec, o.seed, config, tracer, -1,
                             static_cast<std::uint64_t>(rep + 1), &layers);
      });
  EmitLutStore(lut_before, LutStoreCounts::Now(),
               static_cast<double>(setup.seconds.size()), &r);
  cenn::SolverSession& session = *opened.session;

  const double cells = static_cast<double>(z.solve_side * z.solve_side);
  const std::string ckpt = o.work_dir + "/solve.ckpt";
  std::vector<double> step_ms;
  std::uint64_t steps = 0;
  std::uint64_t early_checksum = 0;
  std::uint64_t saved_checksum = 0;
  bool restored = false;

  // The checksums taken for the checks are not part of the measured
  // wall time. The run is cut into windows of solve_checkpoint_every
  // steps, each ending with its checkpoint, and the rates are medians
  // over windows: the two stepping threads see the shared host's short
  // fast and slow stretches, which move single windows.
  std::int64_t unmeasured_ns = 0;
  std::int64_t window_unmeasured_ns = 0;
  std::vector<double> window_s;
  const std::int64_t run_span = tracer->Begin("solve.run");
  const std::int64_t start = NowNs();
  const std::int64_t deadline = start + SecondsToNs(o.seconds);
  std::int64_t window_start = start;
  while (NowNs() < deadline || steps < z.solve_checkpoint_every) {
    const std::int64_t t0 = NowNs();
    const std::uint64_t ran = session.StepN(z.solve_chunk);
    const std::int64_t t1 = NowNs();
    tracer->Record("kernels.stepn", t0, t1, run_span);
    step_ms.push_back(Ms(t0, t1) / static_cast<double>(z.solve_chunk));
    r.attempted += 1;
    if (ran != z.solve_chunk) {
      r.failed += 1;
      break;
    }
    steps += z.solve_chunk;
    if (steps == z.solve_check_steps) {
      early_checksum = session.StateChecksum();
      window_unmeasured_ns += NowNs() - t1;
    }
    if (steps % z.solve_checkpoint_every == 0) {
      const std::int64_t w0 = NowNs();
      const bool saved = session.SaveCheckpoint(ckpt);
      const std::int64_t w1 = NowNs();
      tracer->Record("program.checkpoint_write", w0, w1, run_span);
      layers.checkpoint_write_ms.push_back(Ms(w0, w1));
      r.attempted += 1;
      r.failed += saved ? 0 : 1;
      window_s.push_back(
          static_cast<double>(w1 - window_start - window_unmeasured_ns) / 1e9);
      saved_checksum = session.StateChecksum();
      window_start = NowNs();
      unmeasured_ns += window_unmeasured_ns + (window_start - w1);
      window_unmeasured_ns = 0;
    }
  }
  {
    const std::int64_t t0 = NowNs();
    restored = session.TryRestoreFromFile(ckpt);
    const std::int64_t t1 = NowNs();
    tracer->Record("program.checkpoint_read", t0, t1, run_span);
    layers.checkpoint_read_ms.push_back(Ms(t0, t1));
    layers.checkpoint_bytes.push_back(FileBytes(ckpt));
    r.attempted += 1;  // failed below unless the checksum matches
  }
  const double wall_s =
      static_cast<double>(NowNs() - start - unmeasured_ns -
                          window_unmeasured_ns) /
      1e9;
  tracer->End(run_span);
  r.timed_wall_s = wall_s;
  // Read before the checks open their reference engines.
  r.Add("peak_rss_mb", PeakRssMb(), "MiB");

  layers.step_cell_updates = cells * static_cast<double>(steps);
  layers.AddSession(session, *opened.registry, layers.step_cell_updates,
                    static_cast<double>(steps));
  const double window_steps = static_cast<double>(z.solve_checkpoint_every);
  EmitEndToEnd(setup, cells * window_steps / Median(window_s),
               window_steps / Median(window_s),
               WindowedQuantile(step_ms, z.latency_window, 0.5),
               FastestWindowQuantile(step_ms, z.latency_window, 0.99),
               step_ms.size(), &r);
  r.working_set_bytes =
      static_cast<std::uint64_t>(layers.max_bytes_per_step);
  r.Info("steps", static_cast<double>(steps), "count");
  r.Info("checkpoints", static_cast<double>(layers.checkpoint_write_ms.size()),
         "count");

  // Checks, outside the timed section. A failed check fails the
  // operation it covers: the restore, or the chunk that reached the
  // compared step.
  const bool restore_ok =
      restored && session.StateChecksum() ==
                      Expect(o, "solve.restore_checksum", saved_checksum);
  r.failed += restore_ok ? 0 : 1;
  r.AddCheck("solve.restore_checksum", restore_ok,
             "state after TryRestoreFromFile differs from the state saved");
  {
    ScopedSpan check(tracer, "check.functional");
    cenn::JobSpec ref_spec = spec;
    ref_spec.exec.engine = "functional";
    ref_spec.exec.kernel_path = "auto";
    ref_spec.exec.shards = 1;
    cenn::SessionConfig ref_config;
    ref_config.name = "solve_ref";
    ref_config.exec = ref_spec.exec;
    LayerSamples scratch;
    OpenedSession ref = OpenSession(ref_spec, o.seed, ref_config, tracer,
                                    check.Id(), 0, &scratch);
    ref.session->StepN(z.solve_check_steps);
    const bool same =
        ref.session->StateChecksum() ==
        Expect(o, "solve.state_vs_functional", early_checksum);
    r.failed += same ? 0 : 1;
    r.AddCheck("solve.state_vs_functional", same,
               "soa:fixed:simd state after " +
                   std::to_string(z.solve_check_steps) +
                   " steps differs from the functional Q16.16 engine");
  }

  EmitLayerMetrics(layers, tracer->SelfTimeNs(), &r);
  return r;
}

// ---- arch -----------------------------------------------------------

std::unique_ptr<cenn::Engine>
BuildArch(const cenn::SolverProgram& program)
{
  // The paper's chosen point (Fig. 12-14): L1 = 4 blocks, L2 = 32
  // entries, DDR3, PE clock at 1/4 of the memory I/O clock, with
  // polynomial weights also looked up so the LUT hierarchy is busy.
  cenn::ArchConfig config;
  config.memory = cenn::MemoryParams::Ddr3();
  config.pe_clock_hz = config.memory.pe_clock_hint_hz;
  config.lut_for_polynomials = true;
  config.l1_blocks = 4;
  config.l2_entries = 32;
  return std::make_unique<cenn::ArchSimulator>(program, config);
}

/** The simulated counters that must repeat exactly. */
std::vector<std::uint64_t>
ArchCounters(const cenn::SimReport& report)
{
  return {report.total_cycles,
          report.compute_cycles,
          report.stall_l2_cycles,
          report.stall_dram_cycles,
          report.memory_cycles,
          report.activity.l1_accesses,
          report.activity.l1_misses,
          report.activity.l2_accesses,
          report.activity.l2_misses,
          report.activity.lut_dram_fetches};
}

RunResult
RunArch(const Options& o, Tracer* tracer)
{
  const Sizing z = SizingFor(o);
  RunResult r;
  const std::string side = std::to_string(z.arch_side);
  const cenn::JobSpec spec = SpecOf({{"model", "navier_stokes"},
                                     {"rows", side},
                                     {"cols", side},
                                     {"seed", std::to_string(kArchModelSeed)}});
  cenn::SessionConfig config;
  config.name = "arch";

  LayerSamples layers;
  OpenedSession opened;
  const LutStoreCounts lut_before = LutStoreCounts::Now();
  const SetUps setup = TimeSetUps(
      z, z.setup_group_size, [&] { opened = OpenedSession{}; },
      [&](int rep) {
        opened = OpenSession(spec, kArchModelSeed, config, tracer, -1,
                             static_cast<std::uint64_t>(rep + 1), &layers,
                             BuildArch);
      });
  EmitLutStore(lut_before, LutStoreCounts::Now(),
               static_cast<double>(setup.seconds.size()), &r);
  cenn::SolverSession& session = *opened.session;
  const auto& sim = dynamic_cast<const cenn::ArchSimulator&>(session.Backend());

  const double cells = static_cast<double>(z.arch_side * z.arch_side);
  std::vector<double> step_ms;
  std::uint64_t steps = 0;
  cenn::SimReport counted;
  // The run is cut into windows of arch_window_steps steps. This
  // single-threaded workload sees the shared host's vCPU alternate
  // between a fast and a slow mode (about 11 and 20 ms per step), and
  // runs differ in their mix of the two; the fastest window is the
  // figure that tracks the simulator rather than the neighbours.
  const std::uint64_t window_steps = z.arch_window_steps;
  double best_window_s = 0.0;
  double best_window_p50_ms = 0.0;

  const std::int64_t run_span = tracer->Begin("arch.run");
  const std::int64_t start = NowNs();
  const std::int64_t deadline = start + SecondsToNs(o.seconds);
  std::int64_t window_start = start;
  while (NowNs() < deadline || steps % window_steps != 0 ||
         steps < z.arch_counter_steps) {
    const std::int64_t t0 = NowNs();
    const std::uint64_t ran = session.StepN(1);
    const std::int64_t t1 = NowNs();
    tracer->Record("arch.run_chunk", t0, t1, run_span);
    step_ms.push_back(Ms(t0, t1));
    r.attempted += 1;
    if (ran != 1) {
      r.failed += 1;
      break;
    }
    ++steps;
    if (steps == z.arch_counter_steps) {
      counted = sim.Report();
    }
    if (steps % window_steps == 0) {
      const double window_s = static_cast<double>(t1 - window_start) / 1e9;
      if (best_window_s == 0.0 || window_s < best_window_s) {
        best_window_s = window_s;
        best_window_p50_ms = Median(std::vector<double>(
            step_ms.end() - static_cast<std::ptrdiff_t>(window_steps),
            step_ms.end()));
      }
      window_start = t1;
    }
  }
  tracer->End(run_span);
  const double wall_s = static_cast<double>(NowNs() - start) / 1e9;
  r.timed_wall_s = wall_s;
  r.Add("peak_rss_mb", PeakRssMb(), "MiB");
  const cenn::SimReport final_report = sim.Report();
  const std::uint64_t arch_checksum = session.StateChecksum();

  EmitEndToEnd(setup,
               cells * static_cast<double>(window_steps) / best_window_s,
               static_cast<double>(window_steps) / best_window_s,
               best_window_p50_ms,
               Quantile(step_ms, 0.99),
               step_ms.size(),
               &r);
  r.Info("steps", static_cast<double>(steps), "count");
  r.Info("counter_steps", static_cast<double>(z.arch_counter_steps),
         "count");
  r.Add("arch.run_ns_per_cell",
        wall_s * 1e9 / (cells * static_cast<double>(steps)), "ns");
  r.Add("arch.host_ns_per_sim_kcycle",
        wall_s * 1e9 / (static_cast<double>(final_report.total_cycles) / 1e3),
        "ns");
  r.Add("arch.sim_cycles", static_cast<double>(counted.total_cycles),
        "cycles");
  r.Add("arch.stall_l2_cycles", static_cast<double>(counted.stall_l2_cycles),
        "cycles");
  r.Add("arch.stall_dram_cycles",
        static_cast<double>(counted.stall_dram_cycles), "cycles");
  r.Add("arch.lut.l1_miss_rate", counted.activity.L1MissRate(), "ratio");
  r.Add("arch.lut.l2_miss_rate", counted.activity.L2MissRate(), "ratio");
  r.Add("arch.dram_fetches",
        static_cast<double>(counted.activity.lut_dram_fetches), "count");

  // Checks, outside the timed section. The functional state must
  // equal a soa:fixed run of the same program and step count; that
  // run also gives this workload its kernel and checkpoint samples.
  // A failed state or counter check fails the step it covers; the
  // reference's checkpoint round trip is an operation of its own.
  {
    ScopedSpan check(tracer, "check.soa_fixed");
    cenn::JobSpec ref_spec = spec;
    ref_spec.exec.engine = "soa";
    ref_spec.exec.precision = "fixed";
    cenn::SessionConfig ref_config;
    ref_config.name = "arch_ref";
    ref_config.exec = ref_spec.exec;
    LayerSamples scratch;
    OpenedSession ref = OpenSession(ref_spec, kArchModelSeed, ref_config, tracer,
                                    check.Id(), 0, &scratch);
    const std::int64_t t0 = NowNs();
    ref.session->StepN(steps);
    const std::int64_t t1 = NowNs();
    tracer->Record("kernels.stepn", t0, t1, check.Id());
    layers.step_cell_updates = cells * static_cast<double>(steps);
    layers.AddSession(*ref.session, *ref.registry, layers.step_cell_updates,
                      static_cast<double>(steps));
    const std::uint64_t ref_checksum = ref.session->StateChecksum();
    const bool same =
        ref_checksum == Expect(o, "arch.state_vs_soa_fixed", arch_checksum);
    r.failed += same ? 0 : 1;
    r.AddCheck("arch.state_vs_soa_fixed", same,
               "ArchSimulator functional state differs from soa:fixed after " +
                   std::to_string(steps) + " steps");

    const std::string ckpt = o.work_dir + "/arch_ref.ckpt";
    const std::int64_t w0 = NowNs();
    const bool saved = ref.session->SaveCheckpoint(ckpt);
    const std::int64_t w1 = NowNs();
    const bool restored = saved && ref.session->TryRestoreFromFile(ckpt);
    const std::int64_t w2 = NowNs();
    tracer->Record("program.checkpoint_write", w0, w1, check.Id());
    tracer->Record("program.checkpoint_read", w1, w2, check.Id());
    layers.checkpoint_write_ms.push_back(Ms(w0, w1));
    layers.checkpoint_read_ms.push_back(Ms(w1, w2));
    layers.checkpoint_bytes.push_back(FileBytes(ckpt));
    const bool round_trip =
        restored && ref.session->StateChecksum() ==
                        Expect(o, "arch.checkpoint_round_trip", ref_checksum);
    r.attempted += 1;
    r.failed += round_trip ? 0 : 1;
    r.AddCheck("arch.checkpoint_round_trip", round_trip,
               "soa:fixed checkpoint did not restore the saved state");
  }
  {
    // A fresh simulator must reproduce the counters exactly.
    ScopedSpan check(tracer, "check.arch_repeat");
    cenn::SessionConfig again_config;
    again_config.name = "arch_again";
    LayerSamples scratch;
    OpenedSession again = OpenSession(spec, kArchModelSeed, again_config, tracer,
                                      check.Id(), 0, &scratch, BuildArch);
    again.session->StepN(z.arch_counter_steps);
    std::vector<std::uint64_t> expected = ArchCounters(counted);
    expected[0] = Expect(o, "arch.counters_repeat", expected[0]);
    const bool repeat =
        ArchCounters(dynamic_cast<const cenn::ArchSimulator&>(
                         again.session->Backend())
                         .Report()) == expected;
    r.failed += repeat ? 0 : 1;
    r.AddCheck(
        "arch.counters_repeat", repeat,
        "simulated counters after " + std::to_string(z.arch_counter_steps) +
            " steps differ between two simulations of the same program");
  }
  r.working_set_bytes =
      static_cast<std::uint64_t>(layers.max_bytes_per_step);

  EmitLayerMetrics(layers, tracer->SelfTimeNs(), &r);
  return r;
}

// ---- serve ----------------------------------------------------------

/** One blocking newline-framed loopback connection. */
class LineClient
{
  public:
    explicit LineClient(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0) {
          throw std::runtime_error("socket() failed");
        }
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) != 0) {
          ::close(fd_);
          throw std::runtime_error("connect to 127.0.0.1:" +
                                   std::to_string(port) + " failed");
        }
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    ~LineClient() { ::close(fd_); }
    LineClient(const LineClient&) = delete;
    LineClient& operator=(const LineClient&) = delete;

    /** Sends one request line and returns the response line. */
    std::string Call(const std::string& request)
    {
        const std::string out = request + "\n";
        std::size_t sent = 0;
        while (sent < out.size()) {
          const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent,
                                   MSG_NOSIGNAL);
          if (n <= 0) {
            throw std::runtime_error("send to the service failed");
          }
          sent += static_cast<std::size_t>(n);
        }
        while (true) {
          const std::size_t nl = buf_.find('\n');
          if (nl != std::string::npos) {
            std::string line = buf_.substr(0, nl);
            buf_.erase(0, nl + 1);
            return line;
          }
          char chunk[4096];
          const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
          if (n <= 0) {
            throw std::runtime_error("service closed the connection");
          }
          buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** Service + transport + the two client connections of one run. */
class ServeStack
{
  public:
    ServeStack(const std::string& work_dir, std::uint64_t seed)
    {
        cenn::ServiceOptions options;
        options.num_threads = kPoolThreads;
        // Sized so a Poisson burst never hits admission limits at the
        // offered rate: rejections would count as failed operations.
        options.queue_capacity = 256;
        options.tenant_quota = 128;
        options.work_dir = work_dir;
        options.base_seed = seed;
        service_ = std::make_unique<cenn::SolverService>(options);
        cenn::SolverService* service = service_.get();
        server_ = std::make_unique<cenn::TcpServer>(
            cenn::TcpServerOptions{},
            [service](const std::string& line, std::string* response) {
              return service->HandleLine(line, response);
            },
            [service] { service->OnConnection(); });
        std::string error;
        if (!server_->Start(&error)) {
          throw std::runtime_error("TcpServer start failed: " + error);
        }
        submit_ = std::make_unique<LineClient>(server_->Port());
        collect_ = std::make_unique<LineClient>(server_->Port());
    }
    ~ServeStack() { Close(); }
    ServeStack(const ServeStack&) = delete;
    ServeStack& operator=(const ServeStack&) = delete;

    /** Closes the clients, drains the service, stops the transport. */
    void Close()
    {
        submit_.reset();
        collect_.reset();
        if (service_ != nullptr) {
          service_->Drain();
        }
        if (server_ != nullptr) {
          server_->Stop();
        }
        server_.reset();
        service_.reset();
    }

    cenn::SolverService& Service() { return *service_; }
    LineClient& Submit() { return *submit_; }
    LineClient& Collect() { return *collect_; }

  private:
    std::unique_ptr<cenn::SolverService> service_;
    std::unique_ptr<cenn::TcpServer> server_;
    std::unique_ptr<LineClient> submit_;
    std::unique_ptr<LineClient> collect_;
};

/** One submitted job as seen by the load generator and collector. */
struct LoadJob {
  std::string id;
  std::int64_t scheduled_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t acked_ns = 0;
  std::int64_t arrived_ns = 0;
  bool accepted = false;
  std::string status;
  std::uint64_t checksum = 0;
  double wall_ms = 0.0;
};

std::string
SubmitLine(const MixJob& job)
{
  cenn::JsonWriter spec;
  for (const auto& [k, v] : job.keys) {
    spec.String(k, v);
  }
  return cenn::JsonWriter()
      .String("op", "submit")
      .String("tenant", job.tenant)
      .Raw("spec", spec.Finish())
      .Finish();
}

/**
 * Collector: a few waiter threads take accepted jobs in submission
 * order, block in-process on the job's condition variable until it
 * reaches a terminal status, then fetch its result over the collect
 * connection. The pool starts jobs in FIFO order on kPoolThreads
 * workers, so the jobs that can finish next are among the oldest
 * outstanding ones; with more waiters than workers a job that
 * finishes out of order is fetched as soon as it ends, and no waiter
 * polls.
 */
class Collector
{
  public:
    static constexpr int kWaiters = 2 * kPoolThreads;

    Collector(cenn::SolverService* service, LineClient* client,
              std::vector<LoadJob>* jobs)
        : service_(service), client_(client), jobs_(jobs)
    {
    }

    /** Hands job `index` (accepted by the service) to the collector. */
    void Add(std::size_t index)
    {
        std::lock_guard<std::mutex> lock(mu_);
        incoming_.push_back(index);
        cv_.notify_one();
    }

    /** No more Add calls will follow. */
    void Finish()
    {
        std::lock_guard<std::mutex> lock(mu_);
        finished_ = true;
        cv_.notify_all();
    }

    /** Collects every job handed over until Finish; rethrows an error. */
    void Run()
    {
        std::vector<std::thread> waiters;
        std::vector<std::exception_ptr> errors(kWaiters);
        for (int w = 0; w < kWaiters; ++w) {
          waiters.emplace_back([this, &errors, w] {
            try {
              Wait();
            } catch (...) {
              errors[static_cast<std::size_t>(w)] = std::current_exception();
            }
          });
        }
        for (std::thread& t : waiters) {
          t.join();
        }
        for (const std::exception_ptr& error : errors) {
          if (error) {
            std::rethrow_exception(error);
          }
        }
    }

  private:
    /** One waiter: jobs in submission order until none are left. */
    void Wait()
    {
        while (true) {
          std::size_t index = 0;
          {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return !incoming_.empty() || finished_; });
            if (incoming_.empty()) {
              return;
            }
            index = incoming_.front();
            incoming_.pop_front();
          }
          LoadJob& job = (*jobs_)[index];
          cenn::ServeJob* record = service_->Jobs().Find(job.id);
          if (record == nullptr) {
            throw std::runtime_error("service lost job " + job.id);
          }
          {
            std::unique_lock<std::mutex> lock(record->mu);
            record->cv.wait(lock, [record] {
              return !cenn::ServeJobStatusIsLive(record->status);
            });
          }
          Fetch(&job);
        }
    }

    /** Fetches the result of a finished job over the wire. */
    void Fetch(LoadJob* job)
    {
        const std::string request = cenn::JsonWriter()
                                        .String("op", "result")
                                        .String("job", job->id)
                                        .Finish();
        std::string response;
        {
          std::lock_guard<std::mutex> lock(client_mu_);
          response = client_->Call(request);
        }
        job->arrived_ns = NowNs();
        cenn::JsonValue value;
        std::string error;
        if (!cenn::ParseJson(response, &value, &error)) {
          throw std::runtime_error("unparsable result response: " + error);
        }
        if (!value.GetBool("ok", false)) {
          job->status = "error:" + value.GetString("error");
          return;
        }
        job->status = value.GetString("status");
        job->checksum = std::stoull(value.GetString("checksum", "0"));
        job->wall_ms = value.GetNumber("wall_ms", 0.0);
    }

    cenn::SolverService* service_;
    LineClient* client_;
    std::vector<LoadJob>* jobs_;
    std::mutex client_mu_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::size_t> incoming_;
    bool finished_ = false;
};

RunResult
RunServe(const Options& o, Tracer* tracer)
{
  const Sizing z = SizingFor(o);
  RunResult r;
  const std::string work = o.work_dir + "/serve";
  fs::create_directories(work);

  // Open-loop schedule: a Poisson process at the offered rate,
  // conditioned on rate * seconds arrivals (sorted uniform times), so
  // every run offers the same load. The count is rounded to whole
  // blocks of the stratified mix, so every run offers the same kinds
  // of job too.
  std::size_t count =
      static_cast<std::size_t>(std::lround(z.serve_rate * o.seconds));
  if (count >= kMixBlock) {
    count = (count + kMixBlock / 2) / kMixBlock * kMixBlock;
  }
  std::vector<double> offsets_s(count);
  {
    cenn::Rng rng = cenn::Rng(o.seed).Split(0);
    for (double& t : offsets_s) {
      t = rng.NextDouble() * o.seconds;
    }
    std::sort(offsets_s.begin(), offsets_s.end());
  }
  const std::vector<MixJob> mix =
      MakeJobMix(o.seed, 0, offsets_s.size(), "s", o.zoo_dir);

  std::unique_ptr<ServeStack> stack;
  const SetUps setup = TimeSetUps(
      z, z.serve_setup_group_size, [&] { stack.reset(); },
      [&](int) { stack = std::make_unique<ServeStack>(work, o.seed); });

  if (stack->Submit().Call("{\"op\":\"ping\"}").find("\"ok\":true") ==
      std::string::npos) {
    throw std::runtime_error("service did not answer ping");
  }

  std::vector<LoadJob> jobs(mix.size());
  Collector collector(&stack->Service(), &stack->Collect(), &jobs);
  std::exception_ptr gen_error;
  std::exception_ptr col_error;
  const LutStoreCounts lut_before = LutStoreCounts::Now();
  const std::int64_t origin = NowNs() + 20'000'000;  // threads start first
  std::thread collector_thread([&] {
    try {
      collector.Run();
    } catch (...) {
      col_error = std::current_exception();
    }
  });
  std::thread generator([&] {
    try {
      for (std::size_t i = 0; i < mix.size(); ++i) {
        LoadJob& job = jobs[i];
        job.scheduled_ns = origin + SecondsToNs(offsets_s[i]);
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(job.scheduled_ns - NowNs()));
        job.sent_ns = NowNs();
        const std::string response = stack->Submit().Call(SubmitLine(mix[i]));
        job.acked_ns = NowNs();
        cenn::JsonValue value;
        std::string error;
        if (cenn::ParseJson(response, &value, &error) &&
            value.GetBool("ok", false)) {
          job.id = value.GetString("job");
          job.accepted = true;
          collector.Add(i);
        } else {
          job.status = "rejected:" + value.GetString("error");
        }
      }
    } catch (...) {
      gen_error = std::current_exception();
    }
    collector.Finish();
  });
  generator.join();
  collector_thread.join();
  for (const std::exception_ptr& error : {gen_error, col_error}) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
  const LutStoreCounts lut_after = LutStoreCounts::Now();
  r.Add("peak_rss_mb", PeakRssMb(), "MiB");
  stack->Close();

  // Latencies from each job's scheduled send time to its result.
  std::vector<double> latency_ms;
  std::vector<double> rtt_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> late_ms;
  double cell_updates = 0.0;
  double completed = 0.0;
  double rejected = 0.0;
  std::int64_t last_arrival = origin;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const LoadJob& job = jobs[i];
    late_ms.push_back(Ms(job.scheduled_ns, job.sent_ns));
    if (!job.accepted) {
      rejected += 1;
      continue;
    }
    const double latency = Ms(job.scheduled_ns, job.arrived_ns);
    const double rtt = Ms(job.sent_ns, job.acked_ns);
    latency_ms.push_back(latency);
    rtt_ms.push_back(rtt);
    run_ms.push_back(job.wall_ms);
    queue_ms.push_back(std::max(0.0, latency - job.wall_ms - rtt));
    last_arrival = std::max(last_arrival, job.arrived_ns);
    if (job.status == "ok") {
      completed += 1;
      cell_updates += static_cast<double>(mix[i].cell_updates);
    }
    const std::int64_t root = tracer->Record("serve.job", job.scheduled_ns,
                                             job.arrived_ns, -1, i + 1);
    tracer->Record("serve.submit", job.sent_ns, job.acked_ns, root, i + 1);
    tracer->Record("serve.result_wait", job.acked_ns, job.arrived_ns, root,
                   i + 1);
  }
  const double wall_s = static_cast<double>(last_arrival - origin) / 1e9;
  r.attempted += jobs.size();
  r.failed += static_cast<std::uint64_t>(rejected);
  r.timed_wall_s = wall_s;
  // Every block of kMixBlock jobs offers the same work, so the p50
  // is that of the fastest block: the host's slow stretches move the
  // other blocks, and the median over every job moved with them. The
  // p99 is over every job (it needs the samples beyond it).
  EmitEndToEnd(setup, cell_updates / wall_s, completed / wall_s,
               FastestWindowQuantile(latency_ms, kMixBlock, 0.5),
               Quantile(latency_ms, 0.99), latency_ms.size(), &r);
  r.Info("latency_p50_all_jobs_ms", Quantile(latency_ms, 0.5), "ms");
  r.Info("jobs", static_cast<double>(jobs.size()), "count");
  r.Info("offered_rate", z.serve_rate, "jobs/s");
  EmitLutStore(lut_before, lut_after, completed, &r);
  r.Add("serve.submit_rtt_p50_ms", Quantile(rtt_ms, 0.50), "ms");
  r.Add("serve.submit_rtt_p99_ms", Quantile(rtt_ms, 0.99), "ms");
  r.Add("serve.queue_wait_p50_ms", Quantile(queue_ms, 0.50), "ms");
  r.Add("serve.queue_wait_p99_ms", Quantile(queue_ms, 0.99), "ms");
  r.Add("serve.job_run_p50_ms", Quantile(run_ms, 0.50), "ms");
  r.Add("serve.rejected", rejected, "count");
  r.Add("load.late_p99_ms", Quantile(late_ms, 0.99), "ms");

  // Checks, outside the timed section: every job ends ok with the
  // checksum of a plain SolverSession on its spec (serve == batch).
  // Operations are jobs: a rejected, not-ok or mismatched job is one
  // failed operation.
  LayerSamples layers;
  ReferenceCache refs(tracer, &layers, o.work_dir);
  const std::string ok_status =
      o.corrupt_check == "serve.job_status_ok" ? "corrupted" : "ok";
  std::size_t not_ok = 0;
  std::size_t mismatched = 0;
  std::string first_bad;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (!jobs[i].accepted) {
      continue;
    }
    if (jobs[i].status != ok_status) {
      ++not_ok;
      first_bad = first_bad.empty() ? mix[i].keys[0].second + " status " +
                                          jobs[i].status
                                    : first_bad;
      continue;
    }
    const std::uint64_t expected =
        Expect(o, "serve.checksum_vs_session", refs.Checksum(mix[i]));
    if (jobs[i].checksum != expected) {
      ++mismatched;
    }
  }
  r.AddCheck("serve.job_status_ok", not_ok == 0,
             std::to_string(not_ok) + " jobs did not end ok (" + first_bad +
                 ")");
  r.AddCheck("serve.checksum_vs_session", mismatched == 0,
             std::to_string(mismatched) +
                 " job checksums differ from a plain SolverSession");
  r.failed += not_ok + mismatched;
  r.Info("distinct_specs", static_cast<double>(refs.Size()), "count");
  r.working_set_bytes =
      static_cast<std::uint64_t>(layers.max_bytes_per_step);

  EmitLayerMetrics(layers, tracer->SelfTimeNs(), &r);
  return r;
}

// ---- batch ----------------------------------------------------------

RunResult
RunBatch(const Options& o, Tracer* tracer)
{
  const Sizing z = SizingFor(o);
  RunResult r;

  cenn::BatchOptions options;
  options.num_threads = kPoolThreads;
  options.base_seed = o.seed;

  /** Manifest text -> parsed specs -> runner, for round `round`. */
  struct Round {
    std::vector<MixJob> jobs;
    std::string out_dir;
    std::unique_ptr<cenn::BatchRunner> runner;
  };
  const auto make_round = [&](std::uint64_t round) {
    Round out;
    out.jobs = MakeJobMix(o.seed, round, z.batch_jobs_per_round,
                          "b" + std::to_string(round) + "_", o.zoo_dir);
    std::vector<cenn::JobSpecError> errors;
    std::vector<cenn::JobSpec> specs =
        cenn::ParseManifestCollect(ManifestText(out.jobs), &errors);
    if (!errors.empty()) {
      throw std::runtime_error("manifest rejected: " +
                               cenn::FormatJobSpecErrors(errors));
    }
    out.out_dir = o.work_dir + "/batch" + std::to_string(round);
    cenn::BatchOptions round_options = options;
    round_options.out_dir = out.out_dir;
    out.runner =
        std::make_unique<cenn::BatchRunner>(std::move(specs), round_options);
    return out;
  };

  Round round;
  const SetUps setup =
      TimeSetUps(z, z.setup_group_size, [&] { round = Round{}; },
                 [&](int) { round = make_round(0); });

  // Closed loop: rounds of RunAll until the measured time is spent.
  // Only RunAll is timed; building the next round's manifest is
  // set-up work and is measured as setup_s. Finished jobs are kept
  // compactly (distinct specs once), so the benchmark's own
  // bookkeeping does not grow peak_rss_mb with the rounds run.
  struct Finished {
    const MixJob* job = nullptr;
    cenn::JobStatus status = cenn::JobStatus::kOk;
    std::uint64_t checksum = 0;
    bool has_done = false;
  };
  std::map<std::string, MixJob> distinct;
  std::vector<Finished> finished;
  std::vector<double> job_wall_ms;
  double runall_s = 0.0;
  std::vector<double> round_cells_per_s;
  std::vector<double> round_jobs_per_s;
  double artifacts = 0.0;
  const LutStoreCounts lut_before = LutStoreCounts::Now();
  for (std::uint64_t k = 0; k == 0 || runall_s < o.seconds; ++k) {
    if (k > 0) {
      round = make_round(k);
    }
    const std::int64_t t0 = NowNs();
    std::vector<cenn::JobResult> got = round.runner->RunAll();
    const std::int64_t t1 = NowNs();
    tracer->Record("batch.runall", t0, t1, -1, k + 1);
    const double round_s = static_cast<double>(t1 - t0) / 1e9;
    runall_s += round_s;
    double round_cells = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      const MixJob& job = round.jobs[i];
      job_wall_ms.push_back(got[i].wall_ms);
      round_cells += static_cast<double>(job.cell_updates);
      finished.push_back(
          {&distinct.try_emplace(job.SpecKey(), job).first->second,
           got[i].status, got[i].checksum,
           fs::exists(round.out_dir + "/" + got[i].name + ".done")});
    }
    round_cells_per_s.push_back(round_cells / round_s);
    round_jobs_per_s.push_back(static_cast<double>(got.size()) / round_s);
    artifacts += static_cast<double>(std::distance(
        fs::directory_iterator(round.out_dir), fs::directory_iterator{}));
    fs::remove_all(round.out_dir);
  }
  const LutStoreCounts lut_after = LutStoreCounts::Now();
  r.Add("peak_rss_mb", PeakRssMb(), "MiB");

  double job_wall_total_ms = 0.0;
  for (const double ms : job_wall_ms) {
    job_wall_total_ms += ms;
  }
  const double jobs = static_cast<double>(finished.size());
  r.attempted += finished.size();
  r.timed_wall_s = runall_s;
  // Every round runs one block of the mix, the same work, so the
  // rates are those of the fastest round: the host's slow stretches
  // slow some rounds, not the result. The percentiles are over every
  // job.
  EmitEndToEnd(setup,
               *std::max_element(round_cells_per_s.begin(),
                                 round_cells_per_s.end()),
               *std::max_element(round_jobs_per_s.begin(),
                                 round_jobs_per_s.end()),
               Quantile(job_wall_ms, 0.5), Quantile(job_wall_ms, 0.99),
               job_wall_ms.size(), &r);
  r.Info("jobs", jobs, "count");
  r.Info("artifacts_per_job", artifacts / jobs, "count");
  EmitLutStore(lut_before, lut_after, jobs, &r);
  r.Add("batch.job_wall_p50_ms", Median(job_wall_ms), "ms");
  r.Add("batch.overhead_ms_per_job",
        (kPoolThreads * runall_s * 1e3 - job_wall_total_ms) / jobs, "ms");

  // Checks, outside the timed section. Operations are jobs: a job
  // that is not ok, mismatched or without its .done marker is one
  // failed operation.
  LayerSamples layers;
  ReferenceCache refs(tracer, &layers, o.work_dir);
  const std::string ok_status =
      o.corrupt_check == "batch.job_status_ok" ? "corrupted" : "ok";
  std::size_t not_ok = 0;
  std::size_t mismatched = 0;
  std::size_t missing_done = 0;
  for (const Finished& f : finished) {
    bool bad = false;
    if (cenn::JobStatusName(f.status) != ok_status) {
      ++not_ok;
      bad = true;
    } else if (f.checksum != Expect(o, "batch.checksum_vs_session",
                                    refs.Checksum(*f.job))) {
      ++mismatched;
      bad = true;
    }
    if (Expect(o, "batch.done_markers", f.has_done ? 1 : 0) == 0) {
      ++missing_done;
      bad = true;
    }
    r.failed += bad ? 1 : 0;
  }
  r.AddCheck("batch.job_status_ok", not_ok == 0,
             std::to_string(not_ok) + " jobs did not end ok");
  r.AddCheck("batch.checksum_vs_session", mismatched == 0,
             std::to_string(mismatched) +
                 " job checksums differ from a plain SolverSession");
  r.AddCheck("batch.done_markers", missing_done == 0,
             std::to_string(missing_done) + " jobs left no .done marker");
  r.Info("distinct_specs", static_cast<double>(refs.Size()), "count");
  r.working_set_bytes =
      static_cast<std::uint64_t>(layers.max_bytes_per_step);

  EmitLayerMetrics(layers, tracer->SelfTimeNs(), &r);
  return r;
}

}  // namespace

RunResult
RunWorkload(const Options& options, Tracer* tracer)
{
  if (options.workload == "solve") {
    return RunSolve(options, tracer);
  }
  if (options.workload == "arch") {
    return RunArch(options, tracer);
  }
  if (options.workload == "serve") {
    return RunServe(options, tracer);
  }
  if (options.workload == "batch") {
    return RunBatch(options, tracer);
  }
  throw std::runtime_error("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
