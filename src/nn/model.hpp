// Model: owns a layer tree and provides whole-network services
// (parameter enumeration, prunable-layer views, checkpointing).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "nn/conv.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "tensor/serialize.hpp"

namespace tinyadc::artifact {
class SectionWriter;
class SectionReader;
}  // namespace tinyadc::artifact

namespace tinyadc::nn {

/// A 2-D "crossbar-layout" view of one prunable weight tensor.
///
/// Following Fig. 3 of the paper, the 2-D weight matrix has
///  * one **column per output unit** (filter / output neuron) and
///  * one **row per input tap** (c, kh, kw) for conv, input feature for FC.
/// Element (row, col) lives at flat storage index `col * rows + row` in the
/// underlying (F, C, Kh, Kw) or (out, in) parameter tensor.
struct WeightMatrixView {
  std::string layer_name;  ///< owning layer's name
  Param* weight = nullptr; ///< underlying parameter (not owned)
  std::int64_t rows = 0;   ///< input taps (crossbar row direction)
  std::int64_t cols = 0;   ///< output units (crossbar column direction)
  bool is_conv = false;    ///< true for Conv2d, false for Linear

  /// Materializes the (rows × cols) matrix (transpose copy of storage).
  Tensor to_matrix() const;
  /// Writes a (rows × cols) matrix back into the parameter storage.
  void from_matrix(const Tensor& m) const;
  /// Same transforms for the gradient tensor.
  Tensor grad_to_matrix() const;
};

/// Builds the crossbar-layout view for a conv layer.
WeightMatrixView matrix_view(Conv2d& conv);
/// Builds the crossbar-layout view for a linear layer.
WeightMatrixView matrix_view(Linear& linear);

/// One stage unit of a model: a direct child of the root Sequential (a
/// stem conv, a whole residual block, a pool, the classifier head, ...)
/// plus the prunable-layer indices it contains.
///
/// Units are the grain of unit-by-unit forwards (the per-unit profile):
/// the root chain's forward is exactly the composition of its children's
/// forwards, so any contiguous grouping of units computes the same
/// function as the whole model (see Sequential::forward_range). `prunable` holds indices into
/// prunable_views() order — the same order xbar::MappedNetwork::layers and
/// msim::AnalogNetwork::sims() use — so a unit's analog cost can be read
/// straight off the mapping's occupancy census.
struct StageUnit {
  std::size_t index = 0;               ///< root child index
  std::string name;                    ///< root child's layer name
  std::vector<std::size_t> prunable;   ///< prunable-view indices inside
};

/// A trained network plus introspection services.
class Model {
 public:
  /// Takes ownership of the root layer tree.
  Model(std::string name, std::unique_ptr<Sequential> root);

  /// Forward pass; `training` enables caches and batch statistics.
  Tensor forward(const Tensor& input, bool training) {
    return root_->forward(input, training);
  }
  /// Backward pass through the whole tree.
  Tensor backward(const Tensor& grad_output) {
    return root_->backward(grad_output);
  }

  /// All trainable parameters, pre-order.
  std::vector<Param*> params();
  /// All convolution layers, pre-order.
  std::vector<Conv2d*> conv_layers();
  /// All fully-connected layers, pre-order.
  std::vector<Linear*> linear_layers();
  /// Crossbar-layout views of every prunable weight (convs then linears, in
  /// network order).
  std::vector<WeightMatrixView> prunable_views();

  /// Stage-split view: one StageUnit per direct child of the root chain,
  /// in execution order, with each unit's prunable-view indices. The
  /// concatenation of all units' `prunable` lists is exactly
  /// [0, prunable_views().size()) in order.
  std::vector<StageUnit> stage_units();

  /// Total parameter count.
  std::int64_t param_count();

  /// Deep copy of the whole network (see Layer::clone): same topology and
  /// parameter/BN-statistic values, no shared storage, no hooks. Reads only,
  /// so concurrent clones of one model are safe — used by the fault
  /// Monte-Carlo to give every trial its own replica.
  Model clone() const;

  /// Model name (e.g. "resnet18").
  const std::string& name() const { return name_; }
  /// Root layer (for custom traversal).
  Sequential& root() { return *root_; }

  /// Serializes all parameters (and BN running stats) to `path`.
  void save(const std::string& path);
  /// Restores parameters saved by `save`; shapes must match exactly.
  void load(const std::string& path);

  /// Writes the model name and every state record (parameters + BN running
  /// statistics, pre-order) into a deployment-artifact section.
  void serialize(artifact::SectionWriter& w);
  /// Restores state written by serialize() into this (already constructed)
  /// architecture; record names and shapes must match exactly.
  void deserialize_state(artifact::SectionReader& r);

 private:
  std::vector<TensorRecord> state_records();
  std::string name_;
  std::unique_ptr<Sequential> root_;
};

}  // namespace tinyadc::nn
