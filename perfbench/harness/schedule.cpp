#include "schedule.hpp"

#include <cmath>

namespace perfbench {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix64::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t stream_key(std::uint64_t seed, std::string_view phase) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : phase)
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
  return h ^ (seed * 0x9E3779B97F4A7C15ULL);
}

std::vector<Arrival> make_schedule(std::uint64_t seed, std::string_view phase,
                                   double rate, double seconds,
                                   std::uint32_t pool) {
  std::vector<Arrival> out;
  if (rate <= 0.0 || seconds <= 0.0 || pool == 0) return out;
  SplitMix64 rng(stream_key(seed, phase));
  out.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= seconds) break;
    const auto image = static_cast<std::uint32_t>(rng.next() % pool);
    out.push_back({t, image});
  }
  return out;
}

}  // namespace perfbench
