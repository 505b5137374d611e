// How much CPU time the hypervisor took from this guest.
//
// The reference host is a guest that shares its physical cores. While the
// hypervisor runs another guest on one of them, whatever this guest had
// running there stalls; a busy stretch can last a second or more and slows
// everything measured during it. The benchmark records the stolen share
// over each timed repetition and reports from the least disturbed ones.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Measures the stolen share of all CPUs' time since construction, from
/// the `steal` column of /proc/stat (0 where that is unavailable).
class StealMeter {
 public:
  StealMeter();
  /// Stolen share of the CPU time elapsed since construction, in percent.
  double pct() const;
  /// The share one clock tick of /proc/stat makes of that time, in
  /// percent: two readings closer than this cannot be told apart.
  double resolution_pct() const;

 private:
  double steal0_ = 0.0;
  double total0_ = 0.0;
};

/// The `keep` items with the lowest `steal_pct`, plus every further item
/// the meter cannot tell from the last of them: within `steal_res_pct`
/// (one tick) of its share. On a quiet host most readings are 0, so the
/// ties are kept rather than cut by position. Sorted by stolen share, ties
/// in their given order.
template <typename T>
std::vector<T> least_disturbed(std::vector<T> items, std::size_t keep) {
  std::stable_sort(items.begin(), items.end(), [](const T& a, const T& b) {
    return a.steal_pct < b.steal_pct;
  });
  std::size_t n = std::min(keep, items.size());
  if (n == 0) return {};
  const T& cut = items[n - 1];
  const auto same_as_cut = [&cut](const T& item) {
    return item.steal_pct <=
           cut.steal_pct + std::max(cut.steal_res_pct, item.steal_res_pct);
  };
  while (n < items.size() && same_as_cut(items[n])) ++n;
  items.resize(n);
  return items;
}

}  // namespace perfbench
