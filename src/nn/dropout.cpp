#include "nn/dropout.hpp"

#include "util/require.hpp"

namespace omniboost::nn {

Dropout::Dropout(float p, std::uint64_t seed) : p_(p), rng_(seed) {
  OB_REQUIRE(p >= 0.0f && p < 1.0f, "Dropout: p must be in [0, 1)");
}

void Dropout::init(util::Rng& rng) {
  // Fork a deterministic mask stream so weight init draws stay aligned with
  // and without dropout layers in the graph.
  rng_ = rng.fork();
}

Tensor Dropout::forward(const Tensor& x) {
  if (!training()) return x;
  if (p_ == 0.0f) {
    mask_ = Tensor();
    return x;
  }
  const float keep_scale = 1.0f / (1.0f - p_);
  mask_ = Tensor(x.shape());
  Tensor out = x;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float m = rng_.chance(static_cast<double>(p_)) ? 0.0f : keep_scale;
    mask_[i] = m;
    out[i] *= m;
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;  // inference / p == 0 pass-through
  OB_REQUIRE(grad_out.shape() == mask_.shape(),
             "Dropout::backward: gradient shape mismatch");
  Tensor grad = grad_out;
  grad *= mask_;
  return grad;
}

}  // namespace omniboost::nn
