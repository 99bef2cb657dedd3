#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "serve/wire.h"

namespace perfbench {

double
Quantile(std::vector<double> values, double q)
{
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double
WindowedQuantile(const std::vector<double>& values, std::size_t window,
                 double q)
{
  if (window == 0 || values.size() < window) {
    return Quantile(values, q);
  }
  std::vector<double> per_window;
  for (std::size_t i = 0; i + window <= values.size(); i += window) {
    per_window.push_back(Quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(i),
                            values.begin() +
                                static_cast<std::ptrdiff_t>(i + window)),
        q));
  }
  return Median(per_window);
}

double
FastestWindowQuantile(const std::vector<double>& values, std::size_t window,
                      double q)
{
  if (window == 0 || values.size() < window) {
    return Quantile(values, q);
  }
  double fastest = 0.0;
  for (std::size_t i = 0; i + window <= values.size(); i += window) {
    const double figure = Quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(i),
                            values.begin() +
                                static_cast<std::ptrdiff_t>(i + window)),
        q);
    fastest = i == 0 ? figure : std::min(fastest, figure);
  }
  return fastest;
}

double
PeakRssMb()
{
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

std::string
JsonNumber(double value)
{
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string
JsonQuoted(const std::string& text)
{
  std::string out(1, '"');
  out += cenn::JsonWriter::Escape(text);
  out += '"';
  return out;
}

}  // namespace perfbench
