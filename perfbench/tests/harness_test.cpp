// Unit tests of the benchmark's own helpers: seeded schedules, the
// percentile rules, span self-time arithmetic, the choice of the least
// disturbed repetitions and the backlog test of the qps_at_slo ladder.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "phase.hpp"
#include "schedule.hpp"
#include "stats.hpp"
#include "steal.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Schedule, SameSeedSameSchedule) {
  const auto a = make_schedule(7, "light", 600.0, 2.0, 260);
  const auto b = make_schedule(7, "light", 600.0, 2.0, 260);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(a[i].image, b[i].image);
  }
}

TEST(Schedule, SeedAndPhaseSelectTheStream) {
  const auto a = make_schedule(7, "light", 600.0, 2.0, 260);
  const auto b = make_schedule(8, "light", 600.0, 2.0, 260);
  const auto c = make_schedule(7, "heavy", 600.0, 2.0, 260);
  ASSERT_FALSE(b.empty());
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().due_s, b.front().due_s);
  EXPECT_NE(a.front().due_s, c.front().due_s);
}

TEST(Schedule, PoissonRateAndBounds) {
  const auto s = make_schedule(3, "p", 1000.0, 20.0, 10);
  // 20000 expected arrivals; the count's sd is ~141.
  EXPECT_NEAR(static_cast<double>(s.size()), 20000.0, 1000.0);
  double prev = 0.0;
  for (const Arrival& a : s) {
    EXPECT_GT(a.due_s, prev);
    EXPECT_LT(a.due_s, 20.0);
    EXPECT_LT(a.image, 10U);
    prev = a.due_s;
  }
  EXPECT_TRUE(make_schedule(3, "p", 0.0, 1.0, 10).empty());
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);  // 1..100
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.0);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50.0), 0.0);
}

TEST(Stats, HighestPercentileWithTenBeyond) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10U);
  EXPECT_EQ(samples_beyond(999, 99.0), 9U);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(199), 90.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(100000), 99.99);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
}

TEST(Trace, SelfTimeSubtractsChildrenOnce) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 0},
      {"a", 10, 40, 0, 0},
      {"b", 30, 60, 0, 0},    // overlaps a: union of a and b is [10, 60)
      {"c", 90, 120, 0, 0},   // clipped to the parent's end
      {"grand", 15, 20, 1, 0},
  };
  const auto self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(Trace, NestedChildrenAndDisabledTracer) {
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 0},
      {"outer", 0, 50, 0, 0},
      {"inside", 10, 20, 0, 0},  // wholly inside a sibling: counted once
  };
  EXPECT_EQ(self_times_ns(spans)[0], 50);
  Tracer off(false);
  EXPECT_EQ(off.open("x"), -1);
  off.close(-1);
  EXPECT_TRUE(off.spans().empty());
  Tracer on(true);
  const auto id = on.open("x", -1, 7);
  on.close(id);
  ASSERT_EQ(on.spans().size(), 1U);
  EXPECT_EQ(on.spans()[0].request, 7U);
  EXPECT_GE(on.spans()[0].end_ns, on.spans()[0].start_ns);
}

TEST(Steal, LeastDisturbedKeepsTheLowestInOrder) {
  struct Item {
    int id;
    double steal_pct;
    double steal_res_pct;
  };
  const std::vector<Item> items = {{0, 2.0, 0.1}, {1, 0.5, 0.1},
                                   {2, 0.0, 0.1}, {3, 0.5, 0.1},
                                   {4, 9.0, 0.1}, {5, 0.0, 0.1}};
  const auto kept = least_disturbed(items, 3);
  ASSERT_EQ(kept.size(), 4U);  // #3 ties with #1, the third lowest
  EXPECT_EQ(kept[0].id, 2);    // ties keep their given order
  EXPECT_EQ(kept[1].id, 5);
  EXPECT_EQ(kept[2].id, 1);
  EXPECT_EQ(kept[3].id, 3);
  EXPECT_EQ(least_disturbed(items, 10).size(), items.size());
  EXPECT_TRUE(least_disturbed(items, 0).empty());
}

TEST(Steal, LeastDisturbedKeepsWhatTheMeterCannotTellApart) {
  struct Item {
    int id;
    double steal_pct;
    double steal_res_pct;
  };
  // A quiet host: most readings are 0 or one tick (1.1 %) of a short
  // segment. None may be dropped by position alone.
  const std::vector<Item> quiet = {{0, 0.0, 1.1}, {1, 1.1, 1.1},
                                   {2, 0.0, 1.1}, {3, 0.0, 1.1},
                                   {4, 3.3, 1.1}, {5, 0.0, 1.1}};
  const auto kept = least_disturbed(quiet, 2);
  ASSERT_EQ(kept.size(), 5U);
  EXPECT_EQ(kept.back().id, 1);
  // A finer meter separates the same readings.
  std::vector<Item> fine = quiet;
  for (Item& it : fine) it.steal_res_pct = 0.1;
  EXPECT_EQ(least_disturbed(fine, 2).size(), 4U);
  const StealMeter meter;
  EXPECT_GE(meter.pct(), 0.0);
  EXPECT_LE(meter.pct(), 100.0);
  EXPECT_GT(meter.resolution_pct(), 0.0);
}

/// A segment of `n` requests due evenly over `seconds`, whose latency
/// grows linearly from `first_ms` to `last_ms`.
Phase segment(std::size_t n, double seconds, double first_ms, double last_ms,
              double steal_pct = 0.0) {
  Phase p;
  p.sent = p.ok = static_cast<std::int64_t>(n);
  p.wall_s = seconds + last_ms / 1e3;
  p.steal_pct = steal_pct;
  p.steal_res_pct = 0.1;
  for (std::size_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    p.due_s.push_back(f * seconds);
    p.latency_ms.push_back(first_ms + f * (last_ms - first_ms));
  }
  return p;
}

TEST(Phase, KeepUpSeesAGrowingBacklog) {
  // Flat latency: completions keep pace with arrivals.
  EXPECT_DOUBLE_EQ(keep_up({segment(500, 0.25, 4.0, 4.0)}), 1.0);
  // Latency falling (a queue draining) counts as keeping up too.
  EXPECT_DOUBLE_EQ(keep_up({segment(500, 0.25, 9.0, 4.0)}), 1.0);
  // 40 ms of growth over 0.25 s of arrivals: completions ran at
  // 0.25 / (0.25 + 0.04) of the arrival rate.
  EXPECT_NEAR(keep_up({segment(500, 0.25, 4.0, 44.0)}), 0.25 / 0.29, 1e-9);
  // The median over segments.
  EXPECT_DOUBLE_EQ(keep_up({segment(500, 0.25, 4.0, 4.0),
                            segment(500, 0.25, 4.0, 44.0),
                            segment(500, 0.25, 5.0, 5.0)}),
                   1.0);
  EXPECT_EQ(keep_up({segment(29, 0.25, 4.0, 44.0)}), 0.0);  // too short
}

TEST(Phase, KeptSegmentsPoolEnoughSamplesForTheTail) {
  const std::vector<Phase> segs = {
      segment(300, 0.2, 1.0, 1.0, 0.0), segment(300, 0.2, 2.0, 2.0, 5.0),
      segment(300, 0.2, 3.0, 3.0, 1.0), segment(300, 0.2, 4.0, 4.0, 3.0)};
  // Two least disturbed segments hold 600 samples; 1000 need two more,
  // taken in order of stolen share.
  const auto two = kept_segments(segs, 2, 0);
  ASSERT_EQ(two.size(), 2U);
  EXPECT_EQ(two[1].latency_ms[0], 3.0);
  const auto kept = kept_segments(segs, 2, 1000);
  ASSERT_EQ(kept.size(), 4U);
  EXPECT_EQ(kept[2].latency_ms[0], 4.0);
  // Pooled: 1200 samples, so the p99 (rank 1188) has twelve beyond it.
  EXPECT_EQ(pooled_percentile(kept, 99.0), 4.0);
  EXPECT_EQ(pooled_percentile(kept, 50.0), 2.0);
  EXPECT_NEAR(pooled_rate(two), 600.0 / (2 * 0.2 + 0.001 + 0.003), 1e-9);
}

TEST(Phase, BlockPercentileIsTheMedianOverBlocks) {
  // Six rounds in three blocks; the last block is one busy stretch.
  const std::vector<Phase> segs = {
      segment(600, 0.2, 2.0, 2.0), segment(600, 0.2, 3.0, 3.0),
      segment(600, 0.2, 2.5, 2.5), segment(600, 0.2, 2.0, 2.0),
      segment(600, 0.2, 30.0, 30.0), segment(600, 0.2, 40.0, 40.0)};
  const auto blocks = kept_blocks(segs, 3, 1, 1000);
  ASSERT_EQ(blocks.size(), 3U);
  for (const auto& block : blocks) EXPECT_EQ(block.size(), 2U);
  EXPECT_EQ(blocks[2][0].latency_ms[0], 30.0);  // round order kept
  // Block p99s: 3.0, 2.5, 40.0.
  EXPECT_EQ(block_percentile(blocks, 99.0), 3.0);
}

RungResult rung(double offered, double load, bool pass) {
  RungResult r;
  r.offered = offered;
  r.load = load;
  r.pass = pass;
  return r;
}

TEST(Ladder, JudgeRungAppliesBothLimits) {
  const SloLimits limits{25.0, 0.98};
  const std::vector<Phase> flat = {segment(1200, 0.5, 4.0, 4.0)};
  const RungResult ok = judge_rung("r", 600, flat, {flat, flat, flat}, limits);
  EXPECT_TRUE(ok.pass);
  EXPECT_DOUBLE_EQ(ok.load, 4.0 / 25.0);
  // A backlog fails the rung while its p99 is still within the limit.
  const std::vector<Phase> growing = {segment(1200, 0.5, 4.0, 24.0)};
  const RungResult behind =
      judge_rung("r", 600, growing, {growing, growing, growing}, limits);
  EXPECT_LE(behind.p99_ms, 25.0);
  EXPECT_NEAR(behind.keep_up, 0.5 / 0.52, 1e-3);
  EXPECT_FALSE(behind.pass);
  EXPECT_GT(behind.load, 1.0);
  // Fewer than ten samples beyond the p99 cannot pass.
  const std::vector<Phase> small = {segment(900, 0.5, 4.0, 4.0)};
  EXPECT_FALSE(judge_rung("r", 600, small, {small, small, small}, limits).pass);
  // Neither can a failed request.
  std::vector<Phase> failed = flat;
  failed[0].failed = 1;
  EXPECT_FALSE(judge_rung("r", 600, failed, {flat, flat, flat}, limits).pass);
}

TEST(Ladder, QpsAtSloInterpolatesWhereTheLoadCrossesOne) {
  // 1800 passes at load 0.7, 2100 fails at 1.3: the crossing is halfway.
  EXPECT_DOUBLE_EQ(qps_at_slo({rung(600, 0.3, true), rung(1800, 0.7, true),
                               rung(2100, 1.3, false),
                               rung(2400, 5.0, false)}),
                   1950.0);
  // The highest passing rung counts, even above a failing one.
  EXPECT_DOUBLE_EQ(qps_at_slo({rung(600, 0.3, true), rung(1800, 1.1, false),
                               rung(2100, 0.9, true)}),
                   2100.0);
  // The top rung passing caps the value at its rate.
  EXPECT_DOUBLE_EQ(qps_at_slo({rung(600, 0.3, true), rung(3300, 0.9, true)}),
                   3300.0);
  // Even the first rung failing still gives a rate, from the idle rung.
  EXPECT_DOUBLE_EQ(qps_at_slo({rung(600, 1.5, false), rung(1500, 3.0, false)}),
                   400.0);
}

}  // namespace
}  // namespace perfbench
