// One serving phase's counts and per-request samples, and the rules that
// turn a phase's segments into reported figures. Free of the fleet, so the
// harness's unit tests cover them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Sent/ok/failed counts and per-request samples of one phase.
struct Phase {
  std::string name;
  double rate = 0.0;       ///< offered req/s; 0 for closed loop
  double seconds = 0.0;    ///< scheduled length
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;  ///< rejected, failed or wrong
  double wall_s = 0.0;      ///< first due to last completion
  double steal_pct = 0.0;   ///< CPU time the hypervisor took, in percent
  double steal_res_pct = 0.0;  ///< one tick of that meter, in percent
  // Per ok request, in arrival order:
  std::vector<double> due_s;       ///< due time, from the phase's start
  std::vector<double> latency_ms;  ///< from due time
  std::vector<double> late_ms;     ///< generator lateness
  std::vector<double> batch;       ///< size of the batch that served it

  double achieved_qps() const { return wall_s > 0 ? ok / wall_s : 0.0; }
};

// Each phase runs as short segments interleaved in rounds across the run,
// and each reported figure pools the segments the hypervisor disturbed
// least (see steal.hpp).

/// One phase from its segments: counts summed, samples concatenated.
Phase merge(const std::string& name, const std::vector<Phase>& segments);

/// The least disturbed segments (least_disturbed), extended by the next
/// least disturbed ones until they hold at least `min_samples` latencies.
std::vector<Phase> kept_segments(const std::vector<Phase>& segments,
                                 std::size_t keep, std::size_t min_samples);

/// p-th latency percentile over the pooled samples of `segments`.
double pooled_percentile(const std::vector<Phase>& segments, double p);

/// Splits a rung's segments, in round order, into `blocks` runs of
/// consecutive rounds and keeps each block's kept_segments(block, keep,
/// min_samples). A busy stretch of the host then spoils at most the blocks
/// it overlaps.
std::vector<std::vector<Phase>> kept_blocks(const std::vector<Phase>& segments,
                                            std::size_t blocks,
                                            std::size_t keep,
                                            std::size_t min_samples);

/// p-th latency percentile of a rung: the median over its blocks of each
/// block's pooled percentile.
double block_percentile(const std::vector<std::vector<Phase>>& blocks,
                        double p);

/// Achieved rate of `segments`: their ok requests over their summed wall
/// time.
double pooled_rate(const std::vector<Phase>& segments);

/// How well completions kept up with arrivals, the median over segments.
/// For one segment: between its first and its last third of arrivals, the
/// span of their median due times over that span plus the growth of their
/// median latency. 1 means no backlog built up; 0.9 means completions ran
/// 10 % slower than arrivals. Segments of fewer than 30 requests are
/// skipped.
double keep_up(const std::vector<Phase>& segments);

// The qps_at_slo ladder: open-loop rungs of rising offered rate.

/// The limits a rung must meet: its p99 latency, and how well completions
/// keep up with arrivals (keep_up).
struct SloLimits {
  double p99_ms = 0.0;
  double min_keep_up = 0.0;
};

/// One rung of the ladder, judged on its kept segments.
struct RungResult {
  std::string name;
  double offered = 0.0;     ///< req/s
  std::size_t kept = 0;     ///< segments kept, over all blocks
  std::size_t samples = 0;  ///< latencies in the smallest block
  double rate = 0.0;        ///< achieved req/s of the kept segments
  double p99_ms = 0.0;      ///< block_percentile
  double keep_up = 0.0;     ///< over the kept segments
  /// How far the rung is from its limits: the larger of p99 / limit and
  /// (1 − keep_up) / (1 − min_keep_up). At most 1 when both are met.
  double load = 0.0;
  bool pass = false;
};

/// A rung passes when none of its requests failed, each block holds ten
/// samples beyond its p99, and its load is at most 1.
RungResult judge_rung(const std::string& name, double offered,
                      const std::vector<Phase>& segments,
                      const std::vector<std::vector<Phase>>& blocks,
                      const SloLimits& limits);

/// The highest offered rate that passes, interpolated linearly towards the
/// next rung up by where the load crosses 1 between them. Below the ladder
/// sits an idle rung (0 req/s, load 0), so when even the first rung fails
/// the value is its rate over its load. Offered rather than achieved rates:
/// a short segment's achieved rate also counts the drain of its last
/// requests.
double qps_at_slo(const std::vector<RungResult>& rungs);

}  // namespace perfbench
