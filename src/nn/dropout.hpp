#pragma once
/// \file dropout.hpp
/// Inverted dropout: a regularization layer for estimator-capacity
/// experiments. Training mode zeroes each activation with probability p and
/// scales survivors by 1/(1-p) so the expected activation is unchanged;
/// inference mode is the identity.

#include <cstdint>

#include "nn/module.hpp"
#include "util/rng.hpp"

namespace omniboost::nn {

class Dropout final : public Module {
 public:
  /// \param p     drop probability in [0, 1)
  /// \param seed  deterministic mask stream (reseeded by init())
  explicit Dropout(float p, std::uint64_t seed = 11);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void init(util::Rng& rng) override;
  std::string name() const override { return "Dropout"; }

  float drop_probability() const { return p_; }

 protected:
  void release_caches() override { mask_ = Tensor(); }

 private:
  float p_;
  util::Rng rng_;
  Tensor mask_;  ///< cached keep-mask (already scaled by 1/(1-p))
};

}  // namespace omniboost::nn
