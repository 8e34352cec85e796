#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>

namespace autophase::ml {

void Gradients::zero() {
  for (auto& w : weights) w.fill(0.0);
  for (auto& b : biases) b.fill(0.0);
}

void Gradients::add(const Gradients& other) {
  for (std::size_t l = 0; l < weights.size(); ++l) {
    weights[l] += other.weights[l];
    biases[l] += other.biases[l];
  }
}

void Gradients::scale(double s) {
  for (auto& w : weights) w *= s;
  for (auto& b : biases) b *= s;
}

double Gradients::l2_norm() const {
  double sq = 0.0;
  for (const auto& w : weights) {
    for (const double v : w.data()) sq += v * v;
  }
  for (const auto& b : biases) {
    for (const double v : b.data()) sq += v * v;
  }
  return std::sqrt(sq);
}

Mlp::Mlp(const MlpConfig& config, Rng& rng) : config_(config) {
  std::vector<std::size_t> dims;
  dims.push_back(config.input);
  for (const std::size_t h : config.hidden) dims.push_back(h);
  dims.push_back(config.output);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    const double stddev =
        config.init_stddev_scale / std::sqrt(static_cast<double>(dims[l]));
    weights_.push_back(Matrix::randn(rng, dims[l], dims[l + 1], stddev));
    biases_.push_back(Matrix::zeros(1, dims[l + 1]));
  }
}

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  std::vector<std::size_t> dims;
  dims.push_back(config.input);
  for (const std::size_t h : config.hidden) dims.push_back(h);
  dims.push_back(config.output);
  for (std::size_t l = 0; l + 1 < dims.size(); ++l) {
    weights_.push_back(Matrix::zeros(dims[l], dims[l + 1]));
    biases_.push_back(Matrix::zeros(1, dims[l + 1]));
  }
}

Matrix Mlp::forward_batch(const std::vector<std::vector<double>>& rows) const {
  Matrix x(rows.size(), config_.input);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    assert(rows[r].size() == config_.input);
    std::copy(rows[r].begin(), rows[r].end(), x.row(r));
  }
  return forward(x);
}

Matrix Mlp::forward_batch(std::vector<double> rows, std::size_t batch) const {
  assert(rows.size() == batch * config_.input);
  return forward(Matrix(batch, config_.input, std::move(rows)));
}

namespace {

void apply_activation(Matrix& m, Activation act) {
  for (double& v : m.data()) {
    v = act == Activation::kTanh ? std::tanh(v) : (v > 0.0 ? v : 0.0);
  }
}

/// grad *= act'(pre) evaluated from the post-activation value.
void activation_backward(Matrix& grad, const Matrix& post, Activation act) {
  for (std::size_t i = 0; i < grad.data().size(); ++i) {
    const double y = post.data()[i];
    grad.data()[i] *= act == Activation::kTanh ? (1.0 - y * y) : (y > 0.0 ? 1.0 : 0.0);
  }
}

void add_bias(Matrix& m, const Matrix& bias) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double* row = m.row(r);
    const double* b = bias.row(0);
    for (std::size_t c = 0; c < m.cols(); ++c) row[c] += b[c];
  }
}

}  // namespace

Matrix Mlp::forward(const Matrix& x, ForwardCache* cache) const {
  if (cache != nullptr) {
    cache->input = x;
    cache->post_activations.clear();
  }
  Matrix h;
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    Matrix z = matmul(l == 0 ? x : h, weights_[l]);
    add_bias(z, biases_[l]);
    if (l + 1 != weights_.size()) apply_activation(z, config_.activation);
    if (cache != nullptr) cache->post_activations.push_back(z);
    h = std::move(z);
  }
  return h;
}

void Mlp::backward(const ForwardCache& cache, const Matrix& grad_output,
                   Gradients& grads) const {
  const std::size_t layers = weights_.size();
  Matrix grad = grad_output;  // dLoss/d(post-activation of last layer) == output
  for (std::size_t l = layers; l-- > 0;) {
    // The last layer is linear; hidden layers apply the activation.
    if (l + 1 != layers) activation_backward(grad, cache.post_activations[l], config_.activation);
    const Matrix& layer_input = l == 0 ? cache.input : cache.post_activations[l - 1];
    grads.weights[l] += matmul_tn(layer_input, grad);
    // Bias gradient: column sums.
    for (std::size_t r = 0; r < grad.rows(); ++r) {
      const double* row = grad.row(r);
      double* b = grads.biases[l].row(0);
      for (std::size_t c = 0; c < grad.cols(); ++c) b[c] += row[c];
    }
    if (l > 0) grad = matmul_nt(grad, weights_[l]);
  }
}

Gradients Mlp::make_gradients() const {
  Gradients g;
  for (const auto& w : weights_) g.weights.emplace_back(w.rows(), w.cols());
  for (const auto& b : biases_) g.biases.emplace_back(b.rows(), b.cols());
  return g;
}

void Mlp::apply_delta(const Gradients& delta, double scale) {
  for (std::size_t l = 0; l < weights_.size(); ++l) {
    weights_[l].add_scaled(delta.weights[l], scale);
    biases_[l].add_scaled(delta.biases[l], scale);
  }
}

std::size_t Mlp::parameter_count() const noexcept {
  std::size_t n = 0;
  for (const auto& w : weights_) n += w.size();
  for (const auto& b : biases_) n += b.size();
  return n;
}

std::vector<double> Mlp::flatten() const {
  std::vector<double> out;
  out.reserve(parameter_count());
  for (const auto& w : weights_) out.insert(out.end(), w.data().begin(), w.data().end());
  for (const auto& b : biases_) out.insert(out.end(), b.data().begin(), b.data().end());
  return out;
}

void Mlp::assign(const std::vector<double>& flat) {
  std::size_t cursor = 0;
  for (auto& w : weights_) {
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(cursor),
              flat.begin() + static_cast<std::ptrdiff_t>(cursor + w.size()), w.data().begin());
    cursor += w.size();
  }
  for (auto& b : biases_) {
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(cursor),
              flat.begin() + static_cast<std::ptrdiff_t>(cursor + b.size()), b.data().begin());
    cursor += b.size();
  }
}

}  // namespace autophase::ml
