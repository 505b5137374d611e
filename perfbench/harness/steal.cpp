#include "steal.hpp"

#include <fstream>
#include <string>
#include <tuple>
#include <utility>

namespace perfbench {

namespace {

/// (steal, total) ticks summed over all CPUs.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0.0, steal = 0.0, v = 0.0;
  for (int i = 0; i < 10 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

StealMeter::StealMeter() { std::tie(steal0_, total0_) = cpu_ticks(); }

double StealMeter::pct() const {
  const auto [steal, total] = cpu_ticks();
  return total > total0_ ? 100.0 * (steal - steal0_) / (total - total0_)
                         : 0.0;
}

double StealMeter::resolution_pct() const {
  const double total = cpu_ticks().second;
  return total > total0_ ? 100.0 / (total - total0_) : 100.0;
}

}  // namespace perfbench
