#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t k = nearest_rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

double median(std::vector<double> samples) {
  return percentile(samples, 50.0);
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 95.0, 99.0, 99.9, 99.99})
    if (samples_beyond(n, p) >= min_beyond) best = p;
  return best;
}

}  // namespace perfbench
