// Shared helpers for the table/figure reproduction harnesses.
//
// Every bench prints the same rows/series the paper reports, computed from
// this repository's substrates. Absolute numbers differ from the paper
// (synthetic data, scaled models, analytic cost model — see DESIGN.md §2);
// the *shape* of each result is the reproduction target and is recorded
// against the paper in EXPERIMENTS.md.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "core/pruner.hpp"
#include "data/synthetic.hpp"
#include "nn/models.hpp"
#include "xbar/mapping.hpp"

namespace tinyadc::bench {

/// True when TINYADC_BENCH_QUICK=1 — trims sweeps for smoke runs.
inline bool quick_mode() {
  const char* v = std::getenv("TINYADC_BENCH_QUICK");
  return v != nullptr && v[0] == '1';
}

/// Training-scale dataset for a tier: shrunk to CPU-seconds size.
inline data::DatasetPair bench_dataset(const std::string& tier) {
  data::SyntheticSpec spec = data::tier_by_name(tier);
  spec.image_size = 8;
  spec.train_per_class = quick_mode() ? 12 : 24;
  spec.test_per_class = 8;
  if (tier == "cifar100") spec.num_classes = 10;  // keep CPU budget sane
  if (tier == "imagenet") spec.num_classes = 12;
  return data::make_synthetic(spec);
}

/// Width-scaled model for training benches.
inline std::unique_ptr<nn::Model> bench_model(const std::string& net,
                                              std::int64_t num_classes) {
  nn::ModelConfig cfg;
  cfg.num_classes = num_classes;
  cfg.image_size = 8;
  cfg.width_mult = 0.125F;
  return nn::build_model(net, cfg);
}

/// Full-width model (paper layer shapes) for hardware-cost benches that
/// need no training.
inline std::unique_ptr<nn::Model> full_width_model(const std::string& net,
                                                   std::int64_t num_classes) {
  nn::ModelConfig cfg;
  cfg.num_classes = num_classes;
  cfg.image_size = 32;
  cfg.width_mult = 1.0F;
  return nn::build_model(net, cfg);
}

/// The standard pipeline schedule used by all training benches.
inline core::PipelineConfig bench_pipeline(core::CrossbarDims xbar) {
  core::PipelineConfig cfg;
  cfg.xbar = xbar;
  const int scale = quick_mode() ? 1 : 2;
  cfg.pretrain.epochs = 5 * scale;
  cfg.pretrain.batch_size = 32;
  cfg.pretrain.sgd.lr = 0.05F;
  cfg.pretrain.sgd.total_epochs = cfg.pretrain.epochs;
  cfg.admm.epochs = 3 * scale;
  cfg.admm.batch_size = 32;
  cfg.admm.sgd.lr = 0.02F;
  cfg.admm.sgd.total_epochs = cfg.admm.epochs;
  cfg.admm_params.rho = 0.1F;
  cfg.retrain.epochs = 3 * scale;
  cfg.retrain.batch_size = 32;
  cfg.retrain.sgd.lr = 0.01F;
  cfg.retrain.sgd.total_epochs = cfg.retrain.epochs;
  return cfg;
}

/// Paper-standard mapping: 128×128 crossbars, 2-bit MLC, 1-bit DAC, 8-bit
/// weights/activations, ISAAC encoding.
inline xbar::MappingConfig paper_mapping() { return xbar::MappingConfig{}; }

/// Applies CP magnitude projection (no training) to every layer after the
/// first — used by cost-only benches where only the sparsity *structure*
/// matters.
inline void project_cp_inplace(nn::Model& model, std::int64_t cp_rate,
                               core::CrossbarDims dims,
                               bool include_linear = false) {
  auto views = model.prunable_views();
  const std::int64_t keep =
      std::max<std::int64_t>(1, dims.rows / cp_rate);
  for (std::size_t i = 1; i < views.size(); ++i) {
    if (!views[i].is_conv && !include_linear) continue;
    core::MatrixRef ref{views[i].weight->value.data(), views[i].rows,
                        views[i].cols};
    core::project_column_proportional(ref, dims, keep);
  }
}

/// Horizontal rule for table output.
inline void hr(int width = 86) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// FNV-1a digest of raw output bytes — the bit-identity check of the thread
/// sweeps (same kernel, different thread counts, digests must match).
inline std::uint64_t fnv1a(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ULL;
  return h;
}

/// Folds one digest into a running one, order-sensitively. A plain XOR
/// fold would cancel the digests of identical repeats to zero and prove
/// nothing.
inline std::uint64_t fold_digest(std::uint64_t h, std::uint64_t digest) {
  return (h ^ digest) * 1099511628211ULL;
}

/// One row of a kernel thread-sweep: wall time of a fixed amount of work at
/// one thread count, plus whether the output was bit-identical to the
/// 1-thread run of the same kernel (the runtime's determinism contract).
struct KernelTiming {
  std::string kernel;     ///< kernel name, e.g. "gemm_256"
  int threads = 1;        ///< TINYADC_THREADS value used
  double ms = 0.0;        ///< wall time in milliseconds
  bool identical = true;  ///< output bytes match the 1-thread run
};

/// Resolves the bench JSON output path: `--json <path>` on the command line
/// wins, else the TINYADC_BENCH_JSON environment variable, else "".
inline std::string bench_json_path(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--json") return argv[i + 1];
  const char* env = std::getenv("TINYADC_BENCH_JSON");
  return env != nullptr ? env : "";
}

/// Writes sweep rows as a JSON document:
///   {"bench": <name>, "results": [{"kernel": ..., "threads": ...,
///    "ms": ..., "identical_to_1thread": ...}, ...]}
/// Returns false (after printing to stderr) if the file cannot be written.
inline bool write_bench_json(const std::string& path, const std::string& name,
                             const std::vector<KernelTiming>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write bench JSON to %s\n", path.c_str());
    return false;
  }
  out << "{\n  \"bench\": \"" << name << "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const KernelTiming& r = rows[i];
    out << "    {\"kernel\": \"" << r.kernel << "\", \"threads\": " << r.threads
        << ", \"ms\": " << r.ms << ", \"identical_to_1thread\": "
        << (r.identical ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

}  // namespace tinyadc::bench
