// Seeded open-loop arrival schedules.
//
// A schedule is a Poisson arrival process at a fixed rate: exponential
// inter-arrival gaps and a uniformly drawn pool image per request, both
// from a splitmix64 stream keyed by (workload seed, phase name). Only the
// seed and the phase name select the stream, so the same seed always
// yields the same schedule, and every phase of a run draws independently.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny, fully specified generator (identical output on every
/// platform, unlike the std:: distributions).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform double in [0, 1) from the top 53 bits.
  double uniform();

 private:
  std::uint64_t state_;
};

/// Stream key for (seed, phase): FNV-1a of the phase name mixed with seed.
std::uint64_t stream_key(std::uint64_t seed, std::string_view phase);

struct Arrival {
  double due_s = 0.0;       ///< offset from the phase start
  std::uint32_t image = 0;  ///< index into the request image pool
};

/// Poisson arrivals at `rate` per second over [0, seconds), images drawn
/// uniformly from [0, pool).
std::vector<Arrival> make_schedule(std::uint64_t seed, std::string_view phase,
                                   double rate, double seconds,
                                   std::uint32_t pool);

}  // namespace perfbench
