// Fully-connected network with tanh/ReLU hidden layers — the 256x256 policy
// and value approximators from the paper (§6.2 "a network with 256x256
// fully connected layers"). Supports batched forward, exact backprop given
// dLoss/dOutput, and flat parameter access for the Evolution Strategies
// trainer (which perturbs weights directly).
#pragma once

#include <vector>

#include "ml/matrix.hpp"

namespace autophase::ml {

enum class Activation { kTanh, kRelu };

struct MlpConfig {
  std::size_t input = 1;
  std::vector<std::size_t> hidden = {256, 256};
  std::size_t output = 1;
  Activation activation = Activation::kTanh;
  double init_stddev_scale = 1.0;
};

/// Per-layer parameter gradients (same shapes as the weights).
struct Gradients {
  std::vector<Matrix> weights;
  std::vector<Matrix> biases;

  void zero();
  void add(const Gradients& other);
  void scale(double s);
  /// Global L2 norm across all parameters (for gradient clipping).
  [[nodiscard]] double l2_norm() const;
};

/// Forward-pass activations retained for backprop.
struct ForwardCache {
  Matrix input;
  std::vector<Matrix> post_activations;  // per layer (last = raw output)
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config, Rng& rng);

  /// Zero-initialised network of the given shape — the deserialization
  /// target (weights are assign()ed afterwards; no RNG involved).
  explicit Mlp(const MlpConfig& config);

  [[nodiscard]] const MlpConfig& config() const noexcept { return config_; }

  /// Batched forward: x is (batch x input). Returns (batch x output). When
  /// cache is non-null the activations are stored for backward().
  Matrix forward(const Matrix& x, ForwardCache* cache = nullptr) const;

  /// Stacks `rows` (each config().input wide) into one matrix and runs a
  /// single forward pass. Row i of the result is bit-identical to forward()
  /// on rows[i] alone — each output row is an independent dot-product chain
  /// — which is what lets the serving scheduler fold concurrent requests
  /// into one matmul without changing any request's answer.
  Matrix forward_batch(const std::vector<std::vector<double>>& rows) const;

  /// Flat-buffer variant: `rows` holds `batch` rows of config().input
  /// doubles, contiguous row-major. Adopting the buffer skips the per-row
  /// copies of the vector<vector> overload; output rows are identical.
  Matrix forward_batch(std::vector<double> rows, std::size_t batch) const;

  /// Accumulates parameter gradients for dLoss/dOutput into `grads` (which
  /// must be zero-initialised via make_gradients or Gradients::zero).
  void backward(const ForwardCache& cache, const Matrix& grad_output, Gradients& grads) const;

  [[nodiscard]] Gradients make_gradients() const;

  /// SGD-style parameter update: params += delta * scale (used by the
  /// optimisers and by ES weight perturbation).
  void apply_delta(const Gradients& delta, double scale);

  // ---- Flat parameter vector (ES / checkpointing) ----
  [[nodiscard]] std::size_t parameter_count() const noexcept;
  [[nodiscard]] std::vector<double> flatten() const;
  void assign(const std::vector<double>& flat);

  [[nodiscard]] const std::vector<Matrix>& weights() const noexcept { return weights_; }
  [[nodiscard]] const std::vector<Matrix>& biases() const noexcept { return biases_; }

 private:
  MlpConfig config_;
  std::vector<Matrix> weights_;  // layer l: (in_l x out_l)
  std::vector<Matrix> biases_;   // (1 x out_l)
};

}  // namespace autophase::ml
