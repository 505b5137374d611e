#include "phase.hpp"

#include <algorithm>
#include <cstdint>

#include "stats.hpp"
#include "steal.hpp"

namespace perfbench {

Phase merge(const std::string& name, const std::vector<Phase>& segments) {
  Phase out;
  out.name = name;
  for (const Phase& s : segments) {
    out.rate = s.rate;
    out.seconds += s.seconds;
    out.sent += s.sent;
    out.ok += s.ok;
    out.failed += s.failed;
    out.wall_s += s.wall_s;
    out.due_s.insert(out.due_s.end(), s.due_s.begin(), s.due_s.end());
    out.latency_ms.insert(out.latency_ms.end(), s.latency_ms.begin(),
                          s.latency_ms.end());
    out.late_ms.insert(out.late_ms.end(), s.late_ms.begin(), s.late_ms.end());
    out.batch.insert(out.batch.end(), s.batch.begin(), s.batch.end());
  }
  return out;
}

std::vector<Phase> kept_segments(const std::vector<Phase>& segments,
                                 std::size_t keep, std::size_t min_samples) {
  const std::vector<Phase> sorted = least_disturbed(segments, segments.size());
  std::vector<Phase> kept = least_disturbed(segments, keep);
  std::size_t samples = 0;
  for (const Phase& s : kept) samples += s.latency_ms.size();
  while (samples < min_samples && kept.size() < sorted.size()) {
    kept.push_back(sorted[kept.size()]);
    samples += kept.back().latency_ms.size();
  }
  return kept;
}

double pooled_percentile(const std::vector<Phase>& segments, double p) {
  return percentile(merge("", segments).latency_ms, p);
}

std::vector<std::vector<Phase>> kept_blocks(const std::vector<Phase>& segments,
                                            std::size_t blocks,
                                            std::size_t keep,
                                            std::size_t min_samples) {
  std::vector<std::vector<Phase>> out;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto at = [&](std::size_t k) {
      return segments.begin() +
             static_cast<std::ptrdiff_t>(k * segments.size() / blocks);
    };
    out.push_back(kept_segments({at(b), at(b + 1)}, keep, min_samples));
  }
  return out;
}

double block_percentile(const std::vector<std::vector<Phase>>& blocks,
                        double p) {
  std::vector<double> per;
  for (const auto& block : blocks)
    if (!block.empty()) per.push_back(pooled_percentile(block, p));
  return median(per);
}

double pooled_rate(const std::vector<Phase>& segments) {
  return merge("", segments).achieved_qps();
}

double keep_up(const std::vector<Phase>& segments) {
  std::vector<double> per;
  for (const Phase& s : segments) {
    const std::size_t n = s.latency_ms.size();
    const std::size_t third = n / 3;
    if (third < 10) continue;
    const auto mid = [third](const std::vector<double>& v, std::size_t from) {
      const auto b = v.begin() + static_cast<std::ptrdiff_t>(from);
      return median({b, b + static_cast<std::ptrdiff_t>(third)});
    };
    const double span_ms = 1e3 * (mid(s.due_s, n - third) - mid(s.due_s, 0));
    const double growth_ms = std::max(
        0.0, mid(s.latency_ms, n - third) - mid(s.latency_ms, 0));
    if (span_ms > 0) per.push_back(span_ms / (span_ms + growth_ms));
  }
  return median(per);
}

RungResult judge_rung(const std::string& name, double offered,
                      const std::vector<Phase>& segments,
                      const std::vector<std::vector<Phase>>& blocks,
                      const SloLimits& limits) {
  RungResult r;
  r.name = name;
  r.offered = offered;
  std::vector<Phase> kept;
  r.samples = blocks.empty() ? 0 : SIZE_MAX;
  for (const auto& block : blocks) {
    kept.insert(kept.end(), block.begin(), block.end());
    r.samples = std::min(r.samples, merge("", block).latency_ms.size());
  }
  r.kept = kept.size();
  r.rate = pooled_rate(kept);
  r.p99_ms = block_percentile(blocks, 99.0);
  r.keep_up = keep_up(kept);
  r.load = std::max(r.p99_ms / limits.p99_ms,
                    (1.0 - r.keep_up) / (1.0 - limits.min_keep_up));
  bool failures = false;
  for (const Phase& s : segments) failures |= s.failed != 0;
  r.pass = !failures && highest_supported_percentile(r.samples) >= 99.0 &&
           r.load <= 1.0;
  return r;
}

double qps_at_slo(const std::vector<RungResult>& rungs) {
  RungResult idle;
  idle.pass = true;
  double best = 0.0;
  for (std::size_t i = 0; i <= rungs.size(); ++i) {
    const RungResult& r = i == 0 ? idle : rungs[i - 1];
    if (!r.pass) continue;
    best = r.offered;
    if (i == rungs.size()) break;
    const RungResult& up = rungs[i];
    if (up.load > 1.0 && up.load > r.load)
      best += (up.offered - r.offered) * (1.0 - r.load) / (up.load - r.load);
  }
  return best;
}

}  // namespace perfbench
