// Composite layers: sequential chains and residual blocks.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace tinyadc::nn {

/// Chains child layers; backward runs them in reverse.
class Sequential : public Layer {
 public:
  explicit Sequential(std::string name) : Layer(std::move(name)) {}

  /// Appends a layer and returns a typed raw observer pointer to it.
  template <typename L>
  L* add(std::unique_ptr<L> layer) {
    L* raw = layer.get();
    children_.push_back(std::move(layer));
    return raw;
  }

  /// Constructs a child in place.
  template <typename L, typename... Args>
  L* emplace(Args&&... args) {
    return add(std::make_unique<L>(std::forward<Args>(args)...));
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void visit(const std::function<void(Layer&)>& fn) override;
  LayerPtr clone() const override;

  /// Runs only children [begin, end) — a stage slice of the chain.
  /// forward(x, t) == forward_range(x, 0, size(), t) by construction, so
  /// splitting a forward at any child boundary never changes what each
  /// child computes (what lets a per-unit profile time the real forward).
  Tensor forward_range(const Tensor& input, std::size_t begin,
                       std::size_t end, bool training);

  /// Number of direct children.
  std::size_t size() const { return children_.size(); }
  /// Direct child access.
  Layer& child(std::size_t i) { return *children_.at(i); }

 private:
  std::vector<LayerPtr> children_;
};

/// Residual connection: output = main(x) + shortcut(x), followed by ReLU.
/// `shortcut` may be null, meaning identity (shapes must then match).
class Residual final : public Layer {
 public:
  Residual(std::string name, LayerPtr main_branch, LayerPtr shortcut);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void visit(const std::function<void(Layer&)>& fn) override;
  LayerPtr clone() const override;

 private:
  LayerPtr main_;
  LayerPtr shortcut_;  // null ⇒ identity
  Tensor relu_mask_;
};

}  // namespace tinyadc::nn
