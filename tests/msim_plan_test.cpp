// Sparsity-packed execution plans: every execution path (fused, vector,
// general) must reproduce the dense O(r) row scan bit for bit — outputs AND
// ADC statistics — for every datapath regime, CP rate and thread count, and
// each regime must select its path. Plus the shift-and-add int64 overflow
// guard, and the batch-wide lane-major conv path against batch-1 forwards
// and the dense oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>

#include "core/projection.hpp"
#include "data/synthetic.hpp"
#include "msim/analog_mvm.hpp"
#include "msim/analog_network.hpp"
#include "nn/models.hpp"
#include "runtime/parallel.hpp"
#include "tensor/ops.hpp"

namespace tinyadc::msim {
namespace {

/// A 256×32 matrix CP-projected to `keep` active rows per 128-row crossbar
/// column (keep == 128 leaves the matrix dense). One column is zeroed
/// entirely so empty conversion pairs are always exercised.
Tensor cp_matrix(std::int64_t keep, std::uint64_t seed) {
  constexpr std::int64_t rows = 256, cols = 32;
  tinyadc::Rng rng(seed);
  // Generate in weight-storage (column-major) layout, CP-project there,
  // then transpose into the row-major matrix the mapper consumes.
  std::vector<float> store(static_cast<std::size_t>(rows * cols));
  for (auto& v : store) v = rng.normal(0.0F, 1.0F);
  core::project_column_proportional({store.data(), rows, cols}, {128, 128},
                                    keep);
  Tensor m({rows, cols});
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      m.at(r, c) = store[static_cast<std::size_t>(c * rows + r)];
  for (std::int64_t r = 0; r < rows; ++r) m.at(r, 5) = 0.0F;
  return m;
}

std::vector<std::int32_t> random_codes(std::int64_t n, int bits,
                                       std::uint64_t seed) {
  tinyadc::Rng rng(seed);
  std::vector<std::int32_t> x(static_cast<std::size_t>(n));
  for (auto& v : x)
    v = static_cast<std::int32_t>(rng.uniform_int(1ULL << bits));
  return x;
}

TEST(OverflowGuard, RejectsAccumulatorOverflow) {
  // 15 one-bit slices × 32 one-bit DAC cycles × a 24-bit ADC cannot fit the
  // int64 shift-and-add accumulator — construction must refuse instead of
  // silently wrapping `acc += code << shift`.
  tinyadc::Rng rng(1);
  Tensor m = Tensor::randn({4, 4}, rng);
  xbar::MappingConfig map_cfg;
  map_cfg.dims = {8, 8};
  map_cfg.weight_bits = 16;
  map_cfg.cell_bits = 1;
  map_cfg.input_bits = 32;
  map_cfg.dac_bits = 1;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  MsimConfig cfg;
  cfg.adc_bits_override = 24;
  EXPECT_THROW(AnalogLayerSim(layer, cfg), tinyadc::CheckError);
}

/// Whole-network evaluation must not depend on how the test set is
/// chunked: accuracy and the summed ADC counters of a calibrated
/// AnalogNetwork are identical at batch sizes 1, 7 and 16 — per-sample
/// analog MVMs and per-sample digital layers make each image's path
/// independent of its batch neighbours. Checked for both the packed-plan
/// and the legacy dense execution paths.
TEST(BatchInvariance, EvaluateIndependentOfBatchSize) {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  const auto model = nn::resnet18(mc);

  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.image_size = 8;
  spec.train_per_class = 8;
  spec.test_per_class = 6;
  spec.seed = 17;
  const auto data = data::make_synthetic(spec);

  xbar::MappingConfig map_cfg;
  map_cfg.dims = {16, 16};
  const auto net = xbar::map_model(*model, map_cfg);

  for (const bool use_plan : {true, false}) {
    double ref_acc = 0.0;
    MsimStats ref;
    bool first = true;
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{16}}) {
      // Fresh sims (zero counters) with identical calibration per run.
      MsimConfig cfg;
      cfg.use_plan = use_plan;
      AnalogNetwork analog(*model, net, cfg);
      analog.calibrate(data.train, 8);
      const double acc = analog.evaluate(data.test, batch);
      MsimStats total;
      for (const auto& sim : analog.sims()) {
        const MsimStats s = sim->stats_snapshot();
        total.adc_conversions += s.adc_conversions;
        total.adc_clip_events += s.adc_clip_events;
        total.dac_cycles += s.dac_cycles;
      }
      if (first) {
        ref_acc = acc;
        ref = total;
        first = false;
        EXPECT_GT(total.adc_conversions, 0);
        EXPECT_GT(total.dac_cycles, 0);
      } else {
        EXPECT_DOUBLE_EQ(acc, ref_acc)
            << "use_plan=" << use_plan << " batch=" << batch;
        EXPECT_EQ(total.adc_conversions, ref.adc_conversions)
            << "use_plan=" << use_plan << " batch=" << batch;
        EXPECT_EQ(total.adc_clip_events, ref.adc_clip_events)
            << "use_plan=" << use_plan << " batch=" << batch;
        EXPECT_EQ(total.dac_cycles, ref.dac_cycles)
            << "use_plan=" << use_plan << " batch=" << batch;
      }
    }
  }
}

/// One datapath regime of the equivalence matrix, and the execution path
/// its configuration must select.
struct Regime {
  const char* name;
  double variation_sigma;
  double ir_drop_alpha;
  int adc_below_eq1;  ///< ADC bits under Eq. 1 sizing (> 0: may clip)
  ExecPath path;
};

const Regime kRegimes[] = {
    {"ideal", 0.0, 0.0, 0, ExecPath::kFused},
    {"under-provisioned", 0.0, 0.0, 2, ExecPath::kVector},
    {"variation", 0.1, 0.0, 0, ExecPath::kGeneral},
    {"ir-drop", 0.0, 0.3, 0, ExecPath::kGeneral},
    {"variation+ir-drop", 0.1, 0.3, 0, ExecPath::kGeneral},
};

MsimConfig regime_config(const Regime& rg, const xbar::MappedLayer& layer) {
  MsimConfig cfg;
  cfg.variation_sigma = rg.variation_sigma;
  cfg.ir_drop_alpha = rg.ir_drop_alpha;
  if (rg.adc_below_eq1 > 0)
    cfg.adc_bits_override = layer.required_adc_bits() - rg.adc_below_eq1;
  return cfg;
}

/// Runs every input of `xs` through a plan sim and the dense oracle of the
/// same configuration, and requires the expected path, identical outputs
/// and all three counters. Returns the oracle's counters.
MsimStats expect_matches_dense(const xbar::MappedLayer& layer,
                          const MsimConfig& cfg, ExecPath path,
                          const std::vector<std::vector<std::int32_t>>& xs,
                          const std::string& what) {
  MsimConfig dense_cfg = cfg;
  dense_cfg.use_plan = false;
  AnalogLayerSim sim(layer, cfg);
  AnalogLayerSim dense(layer, dense_cfg);
  EXPECT_EQ(sim.exec_path(), path) << what;
  EXPECT_EQ(dense.exec_path(), ExecPath::kDense) << what;
  for (const auto& x : xs) EXPECT_EQ(sim.mvm(x), dense.mvm(x)) << what;
  EXPECT_EQ(sim.stats().adc_conversions, dense.stats().adc_conversions)
      << what;
  EXPECT_EQ(sim.stats().adc_clip_events, dense.stats().adc_clip_events)
      << what;
  EXPECT_EQ(sim.stats().dac_cycles, dense.stats().dac_cycles) << what;
  return dense.stats();
}

/// Every execution path — fused (ideal, Eq. 1 ADC), vector (ideal, ADC
/// below Eq. 1) and general (variation and/or IR drop) — must reproduce
/// the dense reference bit for bit, outputs AND ADC counters, for every CP
/// rate and thread count. The path is a pure function of the
/// configuration, so each regime also pins which path ran.
class KernelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::int64_t, int>> {
 protected:
  void TearDown() override { runtime::set_thread_count(0); }
};

TEST_P(KernelEquivalence, EveryPathMatchesDenseBitForBit) {
  const auto [keep, threads] = GetParam();
  runtime::set_thread_count(threads);
  const Tensor m = cp_matrix(keep, static_cast<std::uint64_t>(keep) + 1);
  xbar::MappingConfig map_cfg;  // paper config: 128×128, 8/8-bit, 1-bit DAC
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  ASSERT_LE(layer.max_active_rows(), keep);
  // Random codes plus the full-scale input, which drives every plane sum
  // to its maximum.
  std::vector<std::vector<std::int32_t>> xs;
  for (const std::uint64_t seed : {7ULL, 8ULL, 21ULL})
    xs.push_back(random_codes(layer.rows, map_cfg.input_bits, seed));
  xs.emplace_back(static_cast<std::size_t>(layer.rows),
                  (1 << map_cfg.input_bits) - 1);

  for (const Regime& rg : kRegimes) {
    const std::string what = std::string(rg.name) + " keep=" +
                             std::to_string(keep) +
                             " threads=" + std::to_string(threads);
    const MsimStats oracle =
        expect_matches_dense(layer, regime_config(rg, layer), rg.path, xs,
                             what);
    if (rg.adc_below_eq1 > 0) {
      EXPECT_GT(oracle.adc_clip_events, 0)
          << what << ": the regime must actually clip";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RatesAndThreads, KernelEquivalence,
    ::testing::Combine(::testing::Values<std::int64_t>(4, 16, 128),
                       ::testing::Values(1, 4)));

TEST(KernelEquivalence, MultiBitDacFallsBackBitExactly) {
  // A 2-bit DAC streams multi-bit chunks: the fused collapse (Eq. 1 ADC)
  // and the vector path's per-cycle chunk gather (ADC below Eq. 1) must
  // both still match dense.
  const Tensor m = cp_matrix(16, 99);
  xbar::MappingConfig map_cfg;
  map_cfg.dac_bits = 2;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  const std::vector<std::vector<std::int32_t>> xs = {
      random_codes(layer.rows, map_cfg.input_bits, 31)};
  expect_matches_dense(layer, {}, ExecPath::kFused, xs, "2-bit DAC, Eq. 1");
  MsimConfig clip;
  clip.adc_bits_override = layer.required_adc_bits() - 2;
  expect_matches_dense(layer, clip, ExecPath::kVector, xs,
                       "2-bit DAC, ADC below Eq. 1");
}

TEST(KernelEquivalence, UnderProvisionedAdcClipsIdentically) {
  // A 2-bit ADC on a dense column saturates constantly: the fused path
  // must disqualify itself (its predicate requires clip-free conversion),
  // and the vector (ideal) and general (non-ideal) paths must reproduce
  // the dense clipping pattern exactly.
  const Tensor m = cp_matrix(128, 42);
  const auto layer = xbar::map_matrix(m, "l", xbar::MappingConfig{});
  const std::vector<std::vector<std::int32_t>> xs = {
      std::vector<std::int32_t>(static_cast<std::size_t>(layer.rows), 255)};
  MsimConfig cfg;
  cfg.adc_bits_override = 2;
  EXPECT_GT(expect_matches_dense(layer, cfg, ExecPath::kVector, xs, "ideal")
                .adc_clip_events,
            0);
  cfg.variation_sigma = 0.1;
  EXPECT_GT(
      expect_matches_dense(layer, cfg, ExecPath::kGeneral, xs, "variation")
          .adc_clip_events,
      0);
}

TEST(KernelEquivalence, FullyPrunedLayerDegeneratesToZero) {
  // bits == 0 ADCs (a fully-pruned mapping) must output zeros on every
  // path without tripping the fused predicate (full_scale == 0).
  Tensor m({16, 4});
  const auto layer = xbar::map_matrix(m, "l", xbar::MappingConfig{});
  std::vector<std::int32_t> x(static_cast<std::size_t>(layer.rows), 200);
  MsimConfig variation;
  variation.variation_sigma = 0.1;
  for (const auto& [cfg, path] :
       {std::pair{MsimConfig{}, ExecPath::kFused},
        std::pair{variation, ExecPath::kGeneral}}) {
    expect_matches_dense(layer, cfg, path, {x}, "fully pruned");
    AnalogLayerSim sim(layer, cfg);
    const auto y = sim.mvm(x);
    for (const auto v : y) EXPECT_EQ(v, 0);
  }
}

/// The batched entry points must be indistinguishable from per-sample
/// calls: outputs, ADC counters and DAC cycle counts, on every execution
/// path, for the integer API and both real-domain input modes.
class BatchApiEquivalence : public ::testing::TestWithParam<int> {
 protected:
  void TearDown() override { runtime::set_thread_count(0); }
};

TEST_P(BatchApiEquivalence, BatchedMatchesPerSample) {
  runtime::set_thread_count(GetParam());
  const Tensor m = cp_matrix(16, 5);
  xbar::MappingConfig map_cfg;
  const auto layer = xbar::map_matrix(m, "l", map_cfg);
  constexpr std::int64_t kBatch = 5;

  // Fused (lane-major batches), vector and general (per-sample fallback).
  for (const Regime& rg : {kRegimes[0], kRegimes[1], kRegimes[2]}) {
    const MsimConfig cfg = regime_config(rg, layer);
    AnalogLayerSim batched(layer, cfg);
    AnalogLayerSim serial(layer, cfg);
    ASSERT_EQ(batched.exec_path(), rg.path) << rg.name;

    // Integer API.
    std::vector<std::int32_t> xs;
    for (std::int64_t s = 0; s < kBatch; ++s) {
      const auto x = random_codes(layer.rows, map_cfg.input_bits,
                                  100 + static_cast<std::uint64_t>(s));
      xs.insert(xs.end(), x.begin(), x.end());
    }
    const auto yb = batched.mvm_batch(xs, kBatch);
    ASSERT_EQ(yb.size(), static_cast<std::size_t>(kBatch * layer.cols));
    for (std::int64_t s = 0; s < kBatch; ++s) {
      const std::vector<std::int32_t> x(
          xs.begin() + s * layer.rows, xs.begin() + (s + 1) * layer.rows);
      const auto y = serial.mvm(x);
      const std::vector<std::int64_t> row(yb.begin() + s * layer.cols,
                                          yb.begin() + (s + 1) * layer.cols);
      EXPECT_EQ(row, y) << "sample " << s << " " << rg.name;
    }
    EXPECT_EQ(batched.stats().adc_conversions,
              serial.stats().adc_conversions);
    EXPECT_EQ(batched.stats().adc_clip_events,
              serial.stats().adc_clip_events);
    EXPECT_EQ(batched.stats().dac_cycles, serial.stats().dac_cycles);

    // Real-domain API, unsigned and signed (two-phase split).
    xbar::QuantParams q;
    q.bits = map_cfg.input_bits;
    q.scale = 0.043F;
    tinyadc::Rng rng(7);
    std::vector<float> xr(static_cast<std::size_t>(kBatch * layer.rows));
    for (auto& v : xr) v = rng.normal(0.0F, 2.0F);
    for (const bool signed_input : {false, true}) {
      std::vector<float> xin = xr;
      if (!signed_input)
        for (auto& v : xin) v = v < 0.0F ? -v : v;  // post-ReLU domain
      const auto yb_real =
          batched.mvm_real_batch(xin, kBatch, q, signed_input);
      for (std::int64_t s = 0; s < kBatch; ++s) {
        const std::vector<float> x(xin.begin() + s * layer.rows,
                                   xin.begin() + (s + 1) * layer.rows);
        const auto y = signed_input ? serial.mvm_real_signed(x, q)
                                    : serial.mvm_real(x, q);
        const std::vector<float> row(yb_real.begin() + s * layer.cols,
                                     yb_real.begin() + (s + 1) * layer.cols);
        EXPECT_EQ(row, y) << "signed=" << signed_input << " sample " << s
                          << " " << rg.name;
      }
    }
    EXPECT_EQ(batched.stats().adc_conversions,
              serial.stats().adc_conversions);
    EXPECT_EQ(batched.stats().adc_clip_events,
              serial.stats().adc_clip_events);
    EXPECT_EQ(batched.stats().dac_cycles, serial.stats().dac_cycles);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BatchApiEquivalence, ::testing::Values(1,
                                                                         4));

/// Every layer's counters, summed.
MsimStats network_stats(const AnalogNetwork& net) {
  MsimStats total;
  for (const auto& sim : net.sims()) {
    const MsimStats s = sim->stats_snapshot();
    total.adc_conversions += s.adc_conversions;
    total.adc_clip_events += s.adc_clip_events;
    total.dac_cycles += s.dac_cycles;
  }
  return total;
}

MsimStats operator-(const MsimStats& a, const MsimStats& b) {
  return {a.adc_conversions - b.adc_conversions,
          a.adc_clip_events - b.adc_clip_events, a.dac_cycles - b.dac_cycles};
}

void expect_same_counters(const MsimStats& a, const MsimStats& b,
                          const std::string& what) {
  EXPECT_EQ(a.adc_conversions, b.adc_conversions) << what;
  EXPECT_EQ(a.adc_clip_events, b.adc_clip_events) << what;
  EXPECT_EQ(a.dac_cycles, b.dac_cycles) << what;
}

bool same_bits(const float* a, const float* b, std::int64_t n) {
  return std::memcmp(a, b, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

/// Largest fused per-polarity partial Σ|q|·code_max over every (block,
/// column, polarity) of the mapped network: above INT32_MAX the fused
/// kernel must take its int64 partials.
std::int64_t worst_fused_sum(const xbar::MappedNetwork& net) {
  const std::int64_t code_max = (std::int64_t{1} << net.config.input_bits) - 1;
  std::int64_t worst = 0;
  for (const auto& layer : net.layers)
    for (const auto& b : layer.blocks)
      for (std::int64_t c = 0; c < b.cols; ++c) {
        std::int64_t pos = 0, neg = 0;
        for (std::int64_t r = 0; r < b.rows; ++r) {
          const std::int32_t q = b.at(r, c);
          (q > 0 ? pos : neg) += std::abs(q);
        }
        worst = std::max({worst, pos * code_max, neg * code_max});
      }
  return worst;
}

nn::ModelConfig lane_model_config() {
  nn::ModelConfig mc;
  mc.num_classes = 4;
  mc.image_size = 8;
  mc.width_mult = 0.0625F;
  return mc;
}

data::DatasetPair lane_data() {
  data::SyntheticSpec spec;
  spec.num_classes = 4;
  spec.image_size = 8;
  spec.train_per_class = 8;
  spec.test_per_class = 3;
  spec.seed = 23;
  return data::make_synthetic(spec);
}

/// One datapath regime for the lane-kernel sweep.
struct LaneCase {
  const char* name;
  int weight_bits;
  int input_bits;
  double variation_sigma;  ///< > 0 takes the non-fused fallback
  bool wide;               ///< fused partials overflow int32
};

const LaneCase kLaneCases[] = {
    {"narrow", 8, 8, 0.0, false},
    {"wide", 16, 16, 0.0, true},
    {"variation", 8, 8, 0.1, false},
};

/// The batch-wide hooked conv (one lane-major patch matrix per layer per
/// batch) must agree bit for bit — logits and all three counters — with
/// batch-1 forwards and with the dense use_plan=false oracle, for batch
/// sizes whose pixel counts fill lane tiles exactly and partially, at 1
/// and 4 threads, on narrow and wide fused partials and on the non-fused
/// fallback. The resnet stem sees signed pixels, every later layer
/// unsigned post-ReLU activations, so both input modes run.
class LaneKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  void TearDown() override { runtime::set_thread_count(0); }
};

TEST_P(LaneKernelEquivalence, BatchWideConvMatchesPerSampleAndDense) {
  const auto [threads, case_index] = GetParam();
  const LaneCase& lc = kLaneCases[case_index];
  runtime::set_thread_count(threads);

  const auto model = nn::resnet18(lane_model_config());
  nn::Model dense_model = model->clone();
  const auto data = lane_data();
  xbar::MappingConfig map_cfg;
  map_cfg.dims = {16, 16};
  map_cfg.weight_bits = lc.weight_bits;
  map_cfg.input_bits = lc.input_bits;
  const auto net = xbar::map_model(*model, map_cfg);
  if (lc.wide)
    EXPECT_GT(worst_fused_sum(net), INT32_MAX);
  else
    EXPECT_LE(worst_fused_sum(net), INT32_MAX);

  MsimConfig cfg;
  cfg.variation_sigma = lc.variation_sigma;
  MsimConfig dense_cfg = cfg;
  dense_cfg.use_plan = false;
  AnalogNetwork packed(*model, net, cfg);
  AnalogNetwork dense(dense_model, net, dense_cfg);
  packed.calibrate(data.train, 8);
  dense.calibrate(data.train, 8);
  ASSERT_TRUE(packed.signed_input().front());  // raw pixels into the stem
  ASSERT_FALSE(packed.signed_input().back());

  for (const std::size_t batch : {1, 2, 3, 8, 9}) {
    const std::string what = std::string(lc.name) + " threads=" +
                             std::to_string(threads) +
                             " N=" + std::to_string(batch);
    std::vector<std::size_t> idx(batch);
    for (std::size_t i = 0; i < batch; ++i) idx[i] = i;
    const Tensor images = data.test.subset(idx).images;

    MsimStats before = network_stats(packed);
    const Tensor logits = packed.forward(images);
    const MsimStats batched = network_stats(packed) - before;

    before = network_stats(packed);
    const std::int64_t k = logits.dim(1);
    for (std::size_t i = 0; i < batch; ++i) {
      const Tensor one = packed.forward(data.test.subset({i}).images);
      EXPECT_TRUE(same_bits(one.data(),
                            logits.data() + static_cast<std::int64_t>(i) * k,
                            k))
          << what << " sample " << i;
    }
    expect_same_counters(batched, network_stats(packed) - before,
                         what + " vs batch-1");

    before = network_stats(dense);
    const Tensor oracle = dense.forward(images);
    EXPECT_TRUE(same_bits(oracle.data(), logits.data(), logits.numel()))
        << what << " vs dense";
    expect_same_counters(batched, network_stats(dense) - before,
                         what + " vs dense");
    EXPECT_GT(batched.adc_conversions, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndRegimes, LaneKernelEquivalence,
    ::testing::Combine(::testing::Values(1, 4), ::testing::Values(0, 1, 2)));

/// Calibration offers the hook one batch-wide patch matrix per layer; the
/// ranges and signed-input flags it fits must equal those of calibrating
/// on each image alone and merging (max of scales, OR of flags — the
/// scale is monotone in the observed maximum).
TEST(LaneKernelEquivalence, BatchWideCalibrationMatchesPerSample) {
  const auto model = nn::resnet18(lane_model_config());
  const auto data = lane_data();
  xbar::MappingConfig map_cfg;
  map_cfg.dims = {16, 16};
  const auto net = xbar::map_model(*model, map_cfg);
  constexpr std::size_t kImages = 9;

  AnalogNetwork batched(*model, net, {});
  batched.calibrate(data.train, kImages);

  std::vector<float> scale(net.layers.size(), 0.0F);
  std::vector<bool> signed_input(net.layers.size(), false);
  for (std::size_t i = 0; i < kImages; ++i) {
    nn::Model replica = model->clone();
    AnalogNetwork single(replica, net, {});
    single.calibrate(data.train.subset({i}), 1);
    for (std::size_t l = 0; l < net.layers.size(); ++l) {
      scale[l] = std::max(scale[l], single.activation_quant()[l].scale);
      signed_input[l] = signed_input[l] || single.signed_input()[l];
    }
  }
  for (std::size_t l = 0; l < net.layers.size(); ++l) {
    EXPECT_EQ(batched.activation_quant()[l].scale, scale[l]) << "layer " << l;
    EXPECT_EQ(batched.activation_quant()[l].bits, map_cfg.input_bits);
  }
  EXPECT_EQ(batched.signed_input(), signed_input);
}

TEST(OverflowGuard, AcceptsPaperConfiguration) {
  tinyadc::Rng rng(2);
  Tensor m = Tensor::randn({128, 16}, rng);
  const auto layer = xbar::map_matrix(m, "l", xbar::MappingConfig{});
  EXPECT_NO_THROW(AnalogLayerSim(layer, MsimConfig{}));
}

}  // namespace
}  // namespace tinyadc::msim
