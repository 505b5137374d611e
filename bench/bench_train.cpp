// Train-step throughput benchmark for the batched ADMM training pipeline.
//
// Plain invocation prints per-phase wall times of one optimizer step on the
// width-scaled bench ResNet-18 — forward, backward (batched vs the
// per-sample reference conv path), optimizer step, the fused ADMM Z/U
// update, and the full AdmmPruner-attached train step.
//
// Invoked with `--json <path>` (or TINYADC_BENCH_JSON=<path>) it instead
// runs the self-timed thread sweep used by BENCH_kernels.json: each kernel
// at 1/2/N threads with an FNV-1a digest of every output byte; digests must
// match the 1-thread run exactly (the runtime's determinism contract covers
// the whole training step, not just individual kernels).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/admm.hpp"
#include "nn/conv.hpp"
#include "nn/trainer.hpp"
#include "runtime/parallel.hpp"

namespace {

using namespace tinyadc;
using bench::fnv1a;
using bench::fold_digest;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr core::CrossbarDims kDims{128, 128};

/// The first (deterministic-order) training batch of the bench dataset.
data::Batch first_batch(const data::Dataset& ds, std::size_t batch_size) {
  data::BatchIterator it(ds, batch_size, nullptr);
  data::Batch batch;
  it.next(batch);
  return batch;
}

nn::TrainConfig bench_train_config() {
  nn::TrainConfig cfg;
  cfg.epochs = 1;
  cfg.batch_size = 32;
  cfg.sgd.lr = 0.05F;
  cfg.sgd.total_epochs = 1;
  return cfg;
}

std::uint64_t digest_params(nn::Model& model) {
  std::uint64_t h = 0;
  for (const nn::Param* p : model.params()) {
    h = fold_digest(h, fnv1a(p->value.data(),
                             sizeof(float) *
                                 static_cast<std::size_t>(p->value.numel())));
    h = fold_digest(h, fnv1a(p->grad.data(),
                             sizeof(float) *
                                 static_cast<std::size_t>(p->grad.numel())));
  }
  return h;
}

// ---------------------------------------------------------------------------
// Plain mode: per-phase wall times of one train step.
// ---------------------------------------------------------------------------

struct PhaseTimes {
  double forward = 0.0;
  double backward = 0.0;
  double optimizer = 0.0;
};

/// Times the forward / backward / optimizer phases of `reps` SGD steps on a
/// fresh bench model with the conv layers on the given execution path.
PhaseTimes time_phases(const data::Batch& batch, bool batched, int reps) {
  auto model = bench::bench_model("resnet18", 10);
  for (nn::Conv2d* conv : model->conv_layers()) conv->set_batched(batched);
  nn::Trainer trainer(*model, bench_train_config());
  auto params = model->params();
  PhaseTimes t;
  for (int rep = 0; rep < reps; ++rep) {
    nn::Sgd::zero_grad(params);
    auto t0 = Clock::now();
    Tensor logits = model->forward(batch.images, /*training=*/true);
    t.forward += ms_since(t0);
    nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.labels);
    t0 = Clock::now();
    model->backward(loss.grad_logits);
    t.backward += ms_since(t0);
    t0 = Clock::now();
    trainer.optimizer().step(params, 0);
    t.optimizer += ms_since(t0);
  }
  t.forward /= reps;
  t.backward /= reps;
  t.optimizer /= reps;
  return t;
}

int run_phase_table() {
  const int reps = bench::quick_mode() ? 3 : 10;
  data::DatasetPair ds = bench::bench_dataset("cifar10");
  const data::Batch batch = first_batch(ds.train, 32);

  const PhaseTimes ref = time_phases(batch, /*batched=*/false, reps);
  const PhaseTimes bat = time_phases(batch, /*batched=*/true, reps);

  // Fused ADMM Z/U update and the full pruner-attached step.
  auto model = bench::bench_model("resnet18", 10);
  nn::Trainer trainer(*model, bench_train_config());
  auto specs = core::uniform_cp_specs(*model, 8, kDims);
  core::AdmmPruner pruner(*model, specs, kDims, core::AdmmConfig{0.1F, 1});
  pruner.attach(trainer);
  double admm_ms = 0.0;
  double full_ms = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = Clock::now();
    trainer.train_step(batch, 0);
    full_ms += ms_since(t0);
    t0 = Clock::now();
    pruner.update_duals();
    admm_ms += ms_since(t0);
  }
  admm_ms /= reps;
  full_ms /= reps;

  std::printf("Train-step phase timing (bench resnet18, batch %lld, %d reps)\n",
              static_cast<long long>(batch.labels.size()), reps);
  bench::hr(60);
  std::printf("%-28s %14s %14s\n", "phase", "reference ms", "batched ms");
  bench::hr(60);
  std::printf("%-28s %14.3f %14.3f\n", "forward", ref.forward, bat.forward);
  std::printf("%-28s %14.3f %14.3f\n", "backward", ref.backward, bat.backward);
  std::printf("%-28s %14.3f %14.3f\n", "optimizer step", ref.optimizer,
              bat.optimizer);
  bench::hr(60);
  std::printf("%-28s %14s %14.3f\n", "ADMM update_duals", "-", admm_ms);
  std::printf("%-28s %14s %14.3f\n", "full ADMM train step", "-", full_ms);
  bench::hr(60);
  return 0;
}

// ---------------------------------------------------------------------------
// Thread sweep with bit-identity verification (--json / TINYADC_BENCH_JSON).
// ---------------------------------------------------------------------------

struct SweepKernel {
  std::string name;
  std::function<std::uint64_t()> run;
};

std::vector<SweepKernel> make_sweep_kernels(const data::Batch& batch) {
  std::vector<SweepKernel> kernels;

  // Conv forward+backward, per-sample reference path vs the batched
  // single-GEMM workspace path — the tentpole before/after pair. Each run
  // rebuilds the layer from the same seeds, so state is identical across
  // thread counts; gradients accumulate over reps and feed the digest.
  for (const bool batched : {false, true}) {
    kernels.push_back(
        {batched ? "train_conv_fwdbwd_batched" : "train_conv_fwdbwd_ref",
         [batched] {
           Rng rng(11);
           nn::Conv2d conv("bench_conv", 8, 16, 3, 1, 1, /*bias=*/true, rng);
           conv.set_batched(batched);
           Rng drng(12);
           const Tensor input = Tensor::randn({16, 8, 12, 12}, drng);
           const Tensor gout = Tensor::randn({16, 16, 12, 12}, drng);
           std::uint64_t h = 0;
           for (int rep = 0; rep < 6; ++rep) {
             const Tensor out = conv.forward(input, /*training=*/true);
             const Tensor gin = conv.backward(gout);
             h = fold_digest(
                 h, fnv1a(out.data(), sizeof(float) *
                                          static_cast<std::size_t>(out.numel())));
             h = fold_digest(
                 h, fnv1a(gin.data(), sizeof(float) *
                                          static_cast<std::size_t>(gin.numel())));
           }
           const Tensor& gw = conv.weight().grad;
           h = fold_digest(h, fnv1a(gw.data(),
                                    sizeof(float) *
                                        static_cast<std::size_t>(gw.numel())));
           return h;
         }});
  }

  // Full SGD train steps on the bench model (forward, backward, optimizer).
  kernels.push_back({"train_step_sgd", [&batch] {
    auto model = bench::bench_model("resnet18", 10);
    nn::Trainer trainer(*model, bench_train_config());
    for (int rep = 0; rep < 4; ++rep) trainer.train_step(batch, 0);
    return digest_params(*model);
  }});

  // AdmmPruner-attached steps: proximal gradient in the loop plus the fused
  // Z-projection / dual update after every step. The digest covers the
  // parameters and every layer's Z and U buffers.
  kernels.push_back({"train_step_admm", [&batch] {
    auto model = bench::bench_model("resnet18", 10);
    nn::Trainer trainer(*model, bench_train_config());
    auto specs = core::uniform_cp_specs(*model, 8, kDims);
    core::AdmmPruner pruner(*model, specs, kDims, core::AdmmConfig{0.1F, 1});
    pruner.attach(trainer);
    for (int rep = 0; rep < 4; ++rep) {
      trainer.train_step(batch, 0);
      pruner.update_duals();
    }
    std::uint64_t h = digest_params(*model);
    for (std::size_t i = 0; i < pruner.specs().size(); ++i) {
      const auto& z = pruner.z(i);
      const auto& u = pruner.u(i);
      h = fold_digest(h, fnv1a(z.data(), sizeof(float) * z.size()));
      h = fold_digest(h, fnv1a(u.data(), sizeof(float) * u.size()));
    }
    return h;
  }});

  return kernels;
}

int run_thread_sweep(const std::string& json_path) {
  data::DatasetPair ds = bench::bench_dataset("cifar10");
  const data::Batch batch = first_batch(ds.train, 32);
  const auto kernels = make_sweep_kernels(batch);

  const unsigned hw = std::thread::hardware_concurrency();
  const std::vector<int> thread_counts{1, 2,
                                       static_cast<int>(hw > 4 ? hw : 4U)};

  std::vector<bench::KernelTiming> rows;
  bool all_identical = true;
  for (const auto& kernel : kernels) {
    std::uint64_t baseline = 0;
    for (const int threads : thread_counts) {
      runtime::set_thread_count(threads);
      const auto t0 = Clock::now();
      const std::uint64_t digest = kernel.run();
      bench::KernelTiming row;
      row.kernel = kernel.name;
      row.threads = threads;
      row.ms = ms_since(t0);
      if (threads == 1) baseline = digest;
      row.identical = digest == baseline;
      all_identical = all_identical && row.identical;
      std::printf("%-28s threads=%-2d %10.3f ms  %s\n", row.kernel.c_str(),
                  row.threads, row.ms,
                  row.identical ? "bit-identical" : "MISMATCH");
      rows.push_back(row);
    }
  }
  runtime::set_thread_count(0);  // restore default resolution

  if (!bench::write_bench_json(json_path, "bench_train", rows)) return 1;
  std::printf("wrote %s\n", json_path.c_str());
  return all_identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = tinyadc::bench::bench_json_path(argc, argv);
  if (!json_path.empty()) return run_thread_sweep(json_path);
  return run_phase_table();
}
