#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace perfbench {

std::int64_t
NowNs()
{
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t
Tracer::Begin(const std::string& name, std::int64_t parent, std::uint64_t job)
{
  if (!enabled_) {
    return -1;
  }
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, now, now, parent, job});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::End(std::int64_t id)
{
  if (id < 0) {
    return;
  }
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

std::int64_t
Tracer::Record(const std::string& name, std::int64_t start_ns,
               std::int64_t end_ns, std::int64_t parent, std::uint64_t job)
{
  if (!enabled_) {
    return -1;
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start_ns, end_ns, parent, job});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::size_t
Tracer::Size() const
{
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double>
Tracer::SelfTimeNs() const
{
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = static_cast<double>(s.end_ns - s.start_ns);
    // Union of the child intervals clipped to this span: children on
    // other threads may overlap each other.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    std::int64_t cursor = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += static_cast<double>(end - begin);
        cursor = end;
      }
    }
    out[s.name] += duration - covered;
  }
  return out;
}

bool
Tracer::WriteChromeTrace(const std::string& path) const
{
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<unsigned long long>(s.job),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent));
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

double
CalibrateSpanCostNs()
{
  constexpr int kSpans = 20000;
  Tracer probe(true);
  const std::int64_t start = NowNs();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(&probe, "calibrate", -1, 1);
  }
  return static_cast<double>(NowNs() - start) / kSpans;
}

}  // namespace perfbench
