#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code around each call
 * into a solver layer (ResolveModelSource, BuildEngine, the
 * SolverSession constructor, StepN, checkpoints, ArchSimulator runs,
 * serve round trips, BatchRunner::RunAll). Each span carries a name,
 * start and end on the steady clock, its parent span and a job id
 * shared by every span of one job. Nothing is written while the
 * workload runs; WriteChromeTrace dumps the buffer at exit.
 *
 * A disabled tracer records nothing and costs one branch per span,
 * so untraced runs pay no recording cost.
 */

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/** Nanoseconds on the steady clock. */
std::int64_t NowNs();

/** One recorded interval. */
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /** Index of the parent span in the tracer's buffer; -1 = root. */
  std::int64_t parent = -1;
  /** Job the span belongs to (0 = the workload itself). */
  std::uint64_t job = 0;
};

/** Thread-safe span buffer (see file comment). */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** Opens a span; returns its id (-1 when disabled). */
    std::int64_t Begin(const std::string& name, std::int64_t parent = -1,
                       std::uint64_t job = 0);

    /** Closes span `id` at the current time (no-op for -1). */
    void End(std::int64_t id);

    /** Records an already-measured interval; returns its id. */
    std::int64_t Record(const std::string& name, std::int64_t start_ns,
                        std::int64_t end_ns, std::int64_t parent = -1,
                        std::uint64_t job = 0);

    /** Spans recorded so far. */
    std::size_t Size() const;

    /**
     * Self time per span name in ns: each span's duration minus the
     * time its child spans cover, summed over spans of that name.
     */
    std::map<std::string, double> SelfTimeNs() const;

    /**
     * Writes the buffer as Chrome trace_event JSON ("X" events, one
     * lane per job). Returns false when the file cannot be written.
     */
    bool WriteChromeTrace(const std::string& path) const;

  private:
    const bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span over a scope. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer* tracer, const std::string& name,
               std::int64_t parent = -1, std::uint64_t job = 0)
        : tracer_(tracer), id_(tracer->Begin(name, parent, job))
    {
    }
    ~ScopedSpan() { tracer_->End(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    std::int64_t Id() const { return id_; }

  private:
    Tracer* tracer_;
    std::int64_t id_;
};

/**
 * Measured cost of recording one span (Begin + End) on this host, in
 * ns: the basis of the reported tracing overhead.
 */
double CalibrateSpanCostNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
