#include "deploy.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "artifact/artifact.hpp"
#include "core/projection.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

bool Gates::check(const std::string& name, bool ok,
                  const std::string& detail) {
  ++checked_;
  if (!ok) {
    ++failed_;
    failures_.push_back(name);
    std::fprintf(stderr, "GATE FAILED: %s %s\n", name.c_str(),
                 detail.c_str());
  }
  return ok;
}

data::DatasetPair make_data(std::uint64_t seed, std::int64_t train_per_class,
                            std::int64_t test_per_class) {
  data::SyntheticSpec spec = data::tier_by_name("cifar10");
  spec.image_size = kImageSize;
  spec.train_per_class = train_per_class;
  spec.test_per_class = test_per_class;
  spec.seed = seed;
  return data::make_synthetic(spec);
}

std::vector<Tensor> pool_images(const data::Dataset& test) {
  const std::int64_t n = test.size();
  const std::int64_t chw = test.images.numel() / n;
  std::vector<Tensor> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    Tensor img({test.images.dim(1), test.images.dim(2), test.images.dim(3)});
    std::memcpy(img.data(), test.images.data() + i * chw,
                static_cast<std::size_t>(chw) * sizeof(float));
    out.push_back(std::move(img));
  }
  return out;
}

nn::ModelConfig model_config(std::uint64_t init_seed) {
  nn::ModelConfig mc;
  mc.num_classes = 10;
  mc.image_size = kImageSize;
  mc.width_mult = 0.125F;
  mc.seed = init_seed;
  return mc;
}

xbar::MappingConfig mapping_config() {
  xbar::MappingConfig cfg;
  cfg.dims = kDims;
  return cfg;
}

std::vector<core::LayerPruneSpec> cp_specs(nn::Model& model) {
  return core::uniform_cp_specs(model, kCpRate, kDims);
}

void project_cp(nn::Model& model,
                const std::vector<core::LayerPruneSpec>& specs) {
  auto views = model.prunable_views();
  for (std::size_t i = 0; i < views.size(); ++i) {
    if (!specs[i].active()) continue;
    core::MatrixRef ref{views[i].weight->value.data(), views[i].rows,
                        views[i].cols};
    core::project_column_proportional(ref, kDims, specs[i].cp_keep);
  }
}

Built compile(const nn::ModelConfig& config, std::unique_ptr<nn::Model> model,
              std::unique_ptr<xbar::MappedNetwork> net,
              const data::Dataset& calib) {
  Built b;
  b.config = config;
  b.model = std::move(model);
  b.net = std::move(net);
  auto t0 = Clock::now();
  b.analog = std::make_unique<msim::AnalogNetwork>(*b.model, *b.net,
                                                   msim::MsimConfig{});
  b.compile_ms = ms_since(t0);
  t0 = Clock::now();
  b.analog->calibrate(calib, kCalibImages);
  b.calibrate_ms = ms_since(t0);
  return b;
}

double save(const std::string& path, Built& built) {
  tinyadc::artifact::ArtifactMeta meta;
  meta.arch = "resnet18";
  meta.model_name = built.model->name();
  meta.model_config = built.config;
  const auto t0 = Clock::now();
  tinyadc::artifact::ArtifactInputs inputs{
      meta, *built.model, *built.net, *built.analog, built.specs,
      built.selections};
  tinyadc::artifact::save_artifact(path, inputs);
  return ms_since(t0);
}

msim::MsimStats total_counts(const msim::AnalogNetwork& analog) {
  msim::MsimStats t;
  for (const auto& sim : analog.sims()) {
    const msim::MsimStats s = sim->stats_snapshot();
    t.adc_conversions += s.adc_conversions;
    t.adc_clip_events += s.adc_clip_events;
    t.dac_cycles += s.dac_cycles;
  }
  return t;
}

Tensor as_batch(const Tensor& image) {
  return image.reshape({1, image.dim(0), image.dim(1), image.dim(2)});
}

Oracle make_oracle(const msim::AnalogNetwork& analog,
                   const std::vector<Tensor>& pool) {
  Oracle o;
  msim::AnalogSession session(analog);
  for (const Tensor& img : pool) {
    const msim::MsimStats before = total_counts(analog);
    const Tensor logits = session.forward(as_batch(img));
    const msim::MsimStats after = total_counts(analog);
    o.logits.emplace_back(logits.data(), logits.data() + logits.numel());
    o.labels.push_back(tinyadc::argmax_range(logits, 0, logits.numel()));
    o.counts.push_back({after.adc_conversions - before.adc_conversions,
                        after.adc_clip_events - before.adc_clip_events,
                        after.dac_cycles - before.dac_cycles});
  }
  return o;
}

void check_dense_path(Gates& gates, const Built& built,
                      const data::Dataset& calib, const Oracle& oracle,
                      const std::vector<Tensor>& pool, std::size_t n) {
  nn::Model dense_model = built.model->clone();
  msim::MsimConfig cfg;
  cfg.use_plan = false;
  msim::AnalogNetwork dense(dense_model, *built.net, cfg);
  dense.calibrate(calib, kCalibImages);
  const auto& qa = dense.activation_quant();
  const auto& qb = built.analog->activation_quant();
  bool same_quant = qa.size() == qb.size();
  for (std::size_t i = 0; same_quant && i < qa.size(); ++i)
    same_quant = qa[i].bits == qb[i].bits && qa[i].scale == qb[i].scale;
  gates.check("dense.calibration", same_quant);
  msim::AnalogSession session(dense);
  for (std::size_t i = 0; i < n && i < pool.size(); ++i) {
    const Tensor logits = session.forward(as_batch(pool[i]));
    const bool same =
        static_cast<std::size_t>(logits.numel()) == oracle.logits[i].size() &&
        std::memcmp(logits.data(), oracle.logits[i].data(),
                    oracle.logits[i].size() * sizeof(float)) == 0;
    gates.check("dense.logits", same, "image " + std::to_string(i));
  }
}

void check_pruned(Gates& gates, Built& built) {
  auto views = built.model->prunable_views();
  const xbar::MappingConfig& cfg = built.net->config;
  for (std::size_t i = 0; i < views.size(); ++i) {
    const core::LayerPruneSpec& spec = built.specs[i];
    const xbar::MappedLayer& layer = built.net->layers[i];
    std::ostringstream what;
    what << layer.name << " occupancy " << layer.max_active_rows()
         << " design bits " << layer.design_adc_bits();
    gates.check("adc.design_bits",
                layer.design_adc_bits() ==
                    xbar::design_adc_bits(cfg, layer.max_active_rows()),
                what.str());
    gates.check("adc.sim_bits",
                built.analog->sims()[i]->adc_bits() ==
                    layer.required_adc_bits(),
                what.str());
    if (!spec.active() || spec.cp_keep <= 0) continue;
    core::ConstMatrixRef ref{views[i].weight->value.data(), views[i].rows,
                             views[i].cols};
    gates.check("cp.constraint",
                core::satisfies_column_proportional(ref, kDims, spec.cp_keep),
                layer.name);
    gates.check("adc.cp_bits",
                layer.max_active_rows() <= spec.cp_keep &&
                    layer.design_adc_bits() ==
                        xbar::design_adc_bits(cfg, spec.cp_keep),
                what.str());
  }
}

}  // namespace perfbench
