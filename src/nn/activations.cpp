#include <cmath>

#include "nn/layers.hpp"
#include "util/require.hpp"

namespace omniboost::nn {

namespace {
// tanh-approximation constants (Hendrycks & Gimpel, 2016).
constexpr float kSqrt2OverPi = 0.7978845608028654f;
constexpr float kGeluCoef = 0.044715f;
}  // namespace

float GELU::value(float x) {
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

float GELU::derivative(float x) {
  const float x3 = x * x * x;
  const float inner = kSqrt2OverPi * (x + kGeluCoef * x3);
  const float t = std::tanh(inner);
  const float sech2 = 1.0f - t * t;
  const float dinner = kSqrt2OverPi * (1.0f + 3.0f * kGeluCoef * x * x);
  return 0.5f * (1.0f + t) + 0.5f * x * sech2 * dinner;
}

Tensor GELU::forward(const Tensor& x) {
  if (training_) input_ = x;
  Tensor y = x;
  y.apply([](float v) { return value(v); });
  return y;
}

Tensor GELU::backward(const Tensor& grad_out) {
  OB_REQUIRE(!input_.empty(), "GELU::backward before forward");
  OB_REQUIRE(grad_out.shape() == input_.shape(),
             "GELU::backward: grad shape mismatch");
  Tensor gx(grad_out.shape());
  for (std::size_t i = 0; i < gx.size(); ++i)
    gx[i] = grad_out[i] * derivative(input_[i]);
  return gx;
}

Tensor ReLU::forward(const Tensor& x) {
  if (training_) input_ = x;
  Tensor y = x;
  y.apply([](float v) { return v > 0.0f ? v : 0.0f; });
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  OB_REQUIRE(!input_.empty(), "ReLU::backward before forward");
  OB_REQUIRE(grad_out.shape() == input_.shape(),
             "ReLU::backward: grad shape mismatch");
  Tensor gx(grad_out.shape());
  for (std::size_t i = 0; i < gx.size(); ++i)
    gx[i] = input_[i] > 0.0f ? grad_out[i] : 0.0f;
  return gx;
}

}  // namespace omniboost::nn
