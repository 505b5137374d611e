// Order statistics for the benchmark's latency and timing samples.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile `p` in [0, 100] of `samples`: the value at
/// 1-based rank ceil(p/100 * n), clamped to [1, n]. 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Median (the nearest-rank 50th percentile).
double median(std::vector<double> samples);

/// Number of samples ranked strictly above the nearest-rank percentile p.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of 50, 90, 95, 99, 99.9 and 99.99 that still has at least
/// `min_beyond` samples beyond it out of `n`; 0 when even the median has
/// fewer (fewer than 2·min_beyond samples).
double highest_supported_percentile(std::size_t n,
                                    std::size_t min_beyond = 10);

}  // namespace perfbench
