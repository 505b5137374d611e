// Building, saving and checking the deployments the workloads serve.
//
// Both workloads serve resnet18 (width 0.125, 8×8 cifar10-tier images) with
// column-proportional (CP) rate 8 on 32×32 crossbars. serve_8px makes it by
// seeded CP projection of a fixed-seed model (no training, so its numbers
// do not move when training code changes); prune_deploy makes it with the
// paper's full ADMM pipeline. Every deployment served is first run image by
// image through a sequential AnalogSession: that oracle is what every
// served response is checked against.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "msim/analog_network.hpp"
#include "nn/models.hpp"
#include "xbar/mapping.hpp"

namespace perfbench {

using tinyadc::Tensor;
namespace core = tinyadc::core;
namespace data = tinyadc::data;
namespace msim = tinyadc::msim;
namespace nn = tinyadc::nn;
namespace xbar = tinyadc::xbar;

constexpr std::int64_t kImageSize = 8;
constexpr std::int64_t kCpRate = 8;
constexpr core::CrossbarDims kDims{32, 32};
constexpr std::int64_t kCalibImages = 8;

/// Named pass/fail checks of one run. Any failure makes the run incorrect.
class Gates {
 public:
  /// Records a check; prints the detail on failure. Returns `ok`.
  bool check(const std::string& name, bool ok, const std::string& detail = "");
  bool all_ok() const { return failed_ == 0; }
  std::int64_t checked() const { return checked_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::int64_t checked_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Seeded cifar10-tier data at 8×8: `train` feeds calibration (and the
/// pruning pipeline), `test` is the request image pool.
data::DatasetPair make_data(std::uint64_t seed,
                            std::int64_t train_per_class,
                            std::int64_t test_per_class);

/// The request image pool: each test image as a standalone (C, H, W) tensor.
std::vector<Tensor> pool_images(const data::Dataset& test);

nn::ModelConfig model_config(std::uint64_t init_seed);
xbar::MappingConfig mapping_config();

/// The paper's Table I specs: CP rate kCpRate on every conv but the first.
std::vector<core::LayerPruneSpec> cp_specs(nn::Model& model);

/// Seeded CP projection (no training): projects every active spec's layer
/// onto the CP constraint set, as the serve models are made.
void project_cp(nn::Model& model,
                const std::vector<core::LayerPruneSpec>& specs);

/// One deployable: model + mapping + compiled, calibrated analog network.
struct Built {
  nn::ModelConfig config;
  std::unique_ptr<nn::Model> model;
  std::unique_ptr<xbar::MappedNetwork> net;
  std::unique_ptr<msim::AnalogNetwork> analog;
  std::vector<core::LayerPruneSpec> specs;
  std::vector<core::StructuralSelection> selections;
  double compile_ms = 0.0;    ///< AnalogNetwork constructor
  double calibrate_ms = 0.0;  ///< calibrate()
};

/// Compiles and calibrates `model` over `net` (both moved into the result).
Built compile(const nn::ModelConfig& config, std::unique_ptr<nn::Model> model,
              std::unique_ptr<xbar::MappedNetwork> net,
              const data::Dataset& calib);

/// Writes the deployment artifact; returns the wall time in ms.
double save(const std::string& path, Built& built);

/// A deployment's expected per-image outputs and counter deltas.
struct Oracle {
  std::vector<std::vector<float>> logits;
  std::vector<std::int64_t> labels;
  std::vector<msim::MsimStats> counts;
};

/// Sum of the counters of every layer simulator of `analog`.
msim::MsimStats total_counts(const msim::AnalogNetwork& analog);

/// Runs every pool image alone through a sequential AnalogSession.
Oracle make_oracle(const msim::AnalogNetwork& analog,
                   const std::vector<Tensor>& pool);

/// Checks the packed-plan oracle against the dense reference datapath
/// (MsimConfig::use_plan = false) on the first `n` pool images: same
/// calibration, bit-identical logits.
void check_dense_path(Gates& gates, const Built& built,
                      const data::Dataset& calib, const Oracle& oracle,
                      const std::vector<Tensor>& pool, std::size_t n);

/// Checks the paper's structural claims on a pruned deployment: every CP
/// layer satisfies the CP constraint, and every mapped layer's designed ADC
/// resolution is Eq. 1 at its occupancy (the reduced log2(rows / rate)
/// resolution for CP layers).
void check_pruned(Gates& gates, Built& built);

/// (1, C, H, W) batch holding one image.
Tensor as_batch(const Tensor& image);

double ms_since(std::chrono::steady_clock::time_point t0);

}  // namespace perfbench
