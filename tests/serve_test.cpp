// Single-model serving through a one-tenant FleetServer (the setup of the
// CLI `serve`/`loadgen` and bench_serve): correctness vs the sequential
// evaluate path, deterministic-mode byte-identity across worker counts,
// deadline-flush behaviour, shutdown with in-flight requests, queue
// bounds, and a small concurrent soak (run under TSan in CI at
// TINYADC_THREADS=4).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "serve/loadgen.hpp"
#include "xbar/mapping.hpp"

namespace tinyadc::serve {
namespace {

/// Tiny untrained network + synthetic data: serving correctness and
/// determinism do not depend on trained weights, so no training is run.
struct Fixture {
  std::unique_ptr<nn::Model> model;
  data::DatasetPair data;
  xbar::MappedNetwork net;
  std::unique_ptr<msim::AnalogNetwork> analog;

  Fixture() {
    nn::ModelConfig mc;
    mc.num_classes = 4;
    mc.image_size = 8;
    mc.width_mult = 0.0625F;
    model = nn::resnet18(mc);

    data::SyntheticSpec spec;
    spec.num_classes = 4;
    spec.image_size = 8;
    spec.train_per_class = 8;
    spec.test_per_class = 6;
    spec.seed = 91;
    data = data::make_synthetic(spec);

    xbar::MappingConfig cfg;
    cfg.dims = {16, 16};
    net = xbar::map_model(*model, cfg);
    analog = std::make_unique<msim::AnalogNetwork>(*model, net,
                                                   msim::MsimConfig{});
    analog->calibrate(data.train, 8);
  }

  /// Copies test example `i` into a standalone (C, H, W) tensor.
  Tensor image(std::int64_t i) const {
    const Tensor& all = data.test.images;
    const std::int64_t chw = all.numel() / all.dim(0);
    Tensor img({all.dim(1), all.dim(2), all.dim(3)});
    std::memcpy(img.data(), all.data() + i * chw,
                static_cast<std::size_t>(chw) * sizeof(float));
    return img;
  }
};

/// The fixture is expensive enough to share across tests (read-only after
/// construction; sims only accumulate commutative counters).
Fixture& fixture() {
  static Fixture f;
  return f;
}

/// A fleet of `workers` shared workers serving the fixture's compiled
/// network as its one tenant.
struct OneTenant {
  FleetServer fleet;
  int id = -1;

  OneTenant(int workers, const TenantConfig& config)
      : fleet(FleetConfig{workers}) {
    TenantConfig tc = config;
    tc.name = "serve";
    id = fleet.add_tenant(tc, *fixture().analog);
  }

  std::future<InferenceResult> submit(Tensor image) {
    return fleet.submit(id, std::move(image));
  }
  ServeStats stats() const { return fleet.stats().tenants[0].stats; }
};

/// Serves the first `n` test images (cycled) through `serving` and returns
/// the per-request results ordered by seq.
std::vector<InferenceResult> serve_stream(OneTenant& serving,
                                          std::int64_t n) {
  const Fixture& f = fixture();
  std::vector<std::future<InferenceResult>> futures;
  futures.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    futures.push_back(serving.submit(f.image(i % f.data.test.size())));
  serving.fleet.wait_idle();
  std::vector<InferenceResult> results;
  results.reserve(futures.size());
  for (auto& fut : futures) results.push_back(fut.get());
  return results;
}

std::uint64_t digest_results(const std::vector<InferenceResult>& results) {
  std::uint64_t h = fnv1a(nullptr, 0);
  for (const auto& r : results) {
    h = fnv1a(r.logits.data(), r.logits.size() * sizeof(float), h);
    h = fnv1a(&r.label, sizeof(r.label), h);
  }
  return h;
}

TEST(Histogram, PercentilesAreOrderedAndBounded) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000U);
  EXPECT_NEAR(h.mean_us(), 500.5, 1e-9);
  EXPECT_DOUBLE_EQ(h.max_us(), 1000.0);
  const double p50 = h.percentile(50.0);
  const double p95 = h.percentile(95.0);
  const double p99 = h.percentile(99.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max_us());
  // Log-linear buckets: ~±2 % relative resolution around the true rank.
  EXPECT_NEAR(p50, 500.0, 500.0 * 0.06);
  EXPECT_NEAR(p99, 990.0, 990.0 * 0.06);
  LatencyHistogram other;
  other.record(2000.0);
  h.merge(other);
  EXPECT_EQ(h.count(), 1001U);
  EXPECT_DOUBLE_EQ(h.max_us(), 2000.0);
}

TEST(Serve, MatchesSequentialForwardAndEvaluate) {
  Fixture& f = fixture();
  const std::int64_t n = f.data.test.size();
  TenantConfig cfg;
  cfg.max_batch = 4;
  std::vector<InferenceResult> results;
  {
    OneTenant serving(2, cfg);
    results = serve_stream(serving, n);
    const ServeStats stats = serving.stats();
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(n));
    EXPECT_GT(stats.batches, 0U);
    EXPECT_GT(stats.adc_conversions, 0);
    EXPECT_GT(stats.dac_cycles, 0);
    EXPECT_GT(stats.qps, 0.0);
  }
  // Every served request must equal the sequential forward of the same
  // image through the compiled network (same shared sims, same plans).
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const Tensor img = f.image(i);
    Tensor batch({1, img.dim(0), img.dim(1), img.dim(2)});
    std::memcpy(batch.data(), img.data(),
                static_cast<std::size_t>(img.numel()) * sizeof(float));
    const Tensor logits = f.analog->forward(batch);
    const auto& r = results[static_cast<std::size_t>(i)];
    ASSERT_EQ(r.logits.size(), static_cast<std::size_t>(logits.numel()));
    EXPECT_EQ(std::memcmp(r.logits.data(), logits.data(),
                          r.logits.size() * sizeof(float)),
              0)
        << "image " << i;
    if (r.label == f.data.test.labels[static_cast<std::size_t>(i)]) ++correct;
  }
  const double served_accuracy =
      static_cast<double>(correct) / static_cast<double>(n);
  EXPECT_DOUBLE_EQ(served_accuracy, f.analog->evaluate(f.data.test, 16));
}

TEST(Serve, DeterministicModeByteIdenticalAcrossWorkerCounts) {
  constexpr std::int64_t kRequests = 20;
  std::uint64_t digests[2] = {0, 0};
  ServeStats stats[2];
  const int worker_counts[2] = {1, 4};
  for (int run = 0; run < 2; ++run) {
    TenantConfig cfg;
    cfg.max_batch = 8;
    cfg.deterministic = true;
    OneTenant serving(worker_counts[run], cfg);
    const auto results = serve_stream(serving, kRequests);
    digests[run] = digest_results(results);
    stats[run] = serving.stats();
    // Batch composition is pinned: two full batches of 8 plus the drained
    // partial of 4, regardless of worker count.
    ASSERT_LT(8U, stats[run].batch_hist.size());
    EXPECT_EQ(stats[run].batch_hist[8], 2U);
    EXPECT_EQ(stats[run].batch_hist[4], 1U);
    for (std::size_t i = 0; i < results.size(); ++i)
      EXPECT_EQ(results[i].seq, i);
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(stats[0].adc_conversions, stats[1].adc_conversions);
  EXPECT_EQ(stats[0].adc_clip_events, stats[1].adc_clip_events);
  EXPECT_EQ(stats[0].dac_cycles, stats[1].dac_cycles);
  EXPECT_EQ(stats[0].requests, stats[1].requests);
}

TEST(Serve, DeadlineFlushesPartialBatch) {
  Fixture& f = fixture();
  TenantConfig cfg;
  cfg.max_batch = 64;  // never fills from 3 requests
  cfg.max_wait_us = 50000;  // generous: single-core CI boxes jitter
  OneTenant serving(1, cfg);
  std::vector<std::future<InferenceResult>> futures;
  for (std::int64_t i = 0; i < 3; ++i)
    futures.push_back(serving.submit(f.image(i)));
  // No drain, no shutdown: the deadline alone must flush the partial
  // batch of 3.
  for (auto& fut : futures) {
    const InferenceResult r = fut.get();
    EXPECT_EQ(r.batch_size, 3U);
  }
  const ServeStats stats = serving.stats();
  EXPECT_EQ(stats.requests, 3U);
  EXPECT_EQ(stats.batches, 1U);
  ASSERT_LT(3U, stats.batch_hist.size());
  EXPECT_EQ(stats.batch_hist[3], 1U);
}

TEST(Serve, ShutdownServesInflightRequests) {
  Fixture& f = fixture();
  TenantConfig cfg;
  cfg.max_batch = 4;
  cfg.deterministic = true;  // nothing flushes until shutdown drains
  OneTenant serving(2, cfg);
  std::vector<std::future<InferenceResult>> futures;
  for (std::int64_t i = 0; i < 18; ++i)
    futures.push_back(serving.submit(f.image(i % f.data.test.size())));
  serving.fleet.shutdown();  // in-flight requests are never dropped
  for (auto& fut : futures) EXPECT_NO_THROW((void)fut.get());
  EXPECT_EQ(serving.stats().requests, 18U);
  EXPECT_THROW((void)serving.submit(f.image(0)), CheckError);
}

TEST(Serve, QueueBoundRejectsExcessSubmits) {
  Fixture& f = fixture();
  TenantConfig cfg;
  cfg.max_batch = 8;
  cfg.deterministic = true;  // worker holds until a full batch: queue fills
  cfg.max_queue = 4;
  OneTenant serving(1, cfg);
  std::vector<std::future<InferenceResult>> futures;
  for (std::int64_t i = 0; i < 6; ++i)
    futures.push_back(serving.submit(f.image(0)));
  // The 5th and 6th submits overflowed the bound of 4.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(futures[i].valid());
  EXPECT_THROW((void)futures[4].get(), std::runtime_error);
  EXPECT_THROW((void)futures[5].get(), std::runtime_error);
  serving.fleet.wait_idle();
  for (int i = 0; i < 4; ++i) EXPECT_NO_THROW((void)futures[i].get());
  const ServeStats stats = serving.stats();
  EXPECT_EQ(stats.rejected, 2U);
  EXPECT_EQ(stats.requests, 4U);
}

TEST(Serve, LoadgenReportsPercentilesAndAccuracy) {
  Fixture& f = fixture();
  TenantConfig cfg;
  cfg.max_batch = 4;
  OneTenant serving(2, cfg);
  LoadgenConfig lc;
  lc.requests = 30;
  lc.target_qps = 0.0;
  const LoadgenReport report =
      run_loadgen(serving.fleet, serving.id, f.data.test, lc);
  EXPECT_EQ(report.stats.requests, 30U);
  EXPECT_GT(report.achieved_qps, 0.0);
  EXPECT_LE(report.stats.p50_us, report.stats.p99_us);
  EXPECT_GT(report.stats.p99_us, 0.0);
  EXPECT_GE(report.accuracy, 0.0);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"p50_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"qps\""), std::string::npos);
  EXPECT_NE(json.find("\"accuracy\""), std::string::npos);
}

TEST(Serve, LoadgenRejectsADatasetOfAnotherClassCount) {
  Fixture& f = fixture();
  data::Dataset other = f.data.test;
  other.num_classes = 3;  // the tenant serves 4 classes
  OneTenant serving(1, TenantConfig{});
  LoadgenConfig lc;
  lc.requests = 4;
  EXPECT_THROW((void)run_loadgen(serving.fleet, serving.id, other, lc),
               CheckError);
}

/// Small soak: concurrent submitters + a stats poller against 4 workers.
/// Run under TSan in CI (TINYADC_THREADS=4) to shake out data races
/// between the queue, the batcher, the shared sims and the stats path.
TEST(Serve, SoakConcurrentSubmittersAndStats) {
  Fixture& f = fixture();
  TenantConfig cfg;
  cfg.max_batch = 4;
  cfg.max_wait_us = 100;
  OneTenant serving(4, cfg);
  constexpr int kSubmitters = 3;
  constexpr int kPerSubmitter = 24;
  std::atomic<int> completed{0};
  std::atomic<bool> polling{true};
  std::thread poller([&] {
    while (polling.load()) {
      const ServeStats s = serving.stats();
      ASSERT_LE(s.requests,
                static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t)
    submitters.emplace_back([&, t] {
      for (int i = 0; i < kPerSubmitter; ++i) {
        auto fut = serving.submit(
            f.image((t * kPerSubmitter + i) % f.data.test.size()));
        const InferenceResult r = fut.get();  // closed loop per submitter
        ASSERT_EQ(r.logits.size(), 4U);
        completed.fetch_add(1);
      }
    });
  for (auto& t : submitters) t.join();
  polling.store(false);
  poller.join();
  serving.fleet.wait_idle();
  EXPECT_EQ(completed.load(), kSubmitters * kPerSubmitter);
  EXPECT_EQ(serving.stats().requests,
            static_cast<std::uint64_t>(kSubmitters * kPerSubmitter));
}

}  // namespace
}  // namespace tinyadc::serve
