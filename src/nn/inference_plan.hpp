#pragma once
/// \file inference_plan.hpp
/// A trained conv network compiled once into an immutable inference plan.
///
/// The plan copies the weights out of a Sequential in inference mode and
/// replays its forward pass with no Tensor, no im2col and no GEMM packing:
///  * every Conv2d -> [BatchNorm2d] -> [GELU | ReLU] block is ONE direct
///    convolution whose store epilogue adds the bias, applies BatchNorm
///    with its running statistics and the activation;
///  * a MaxPool2d after a block makes the block compute only the pixels the
///    pool reads, and pools straight into the next block's padded input;
///  * a Residual's identity add runs in the epilogue of its body's last
///    block;
///  * GlobalAvgPool -> Linear at the end is one tail step.
///
/// Bit-identity contract: the result equals Sequential::forward under
/// KernelKind::kGemm bit for bit. Each conv output element is summed in
/// tensor::gemm's order: k = (ic, ky, kx) ascending, one partial sum per
/// 128-wide k block (gemm's kKC), each from +0.0f with a separate float
/// multiply and add, the partials added left to right, then `+ bias`, then
/// BatchNorm as `g * (x - mean) * istd + beta`, then the activation. The
/// Linear head follows the same rule. The x86-64 AVX2 body is compiled as
/// target("avx2") without FMA, so no multiply-add is ever fused.
/// tests/inference_plan_test.cpp pins the contract with memcmp.
///
/// Thread safety: forward() is const and keeps all working memory in the
/// caller's Scratch, so any number of threads may share one plan, each with
/// its own Scratch.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace omniboost::nn {

class InferencePlan {
 public:
  /// Per-caller working memory: every activation buffer of one sample
  /// (~48 KB for the estimator). Bound lazily to the plan it serves.
  struct Scratch {
    std::uint64_t plan_id = 0;  ///< plan whose layout the arena holds
    std::vector<float> arena;
  };

  /// Compiles \p net (which must be in inference mode) for single samples
  /// of shape (channels, height, width). Returns std::nullopt when the
  /// graph holds a layer or an arrangement the plan has no step for; the
  /// caller then keeps running the module graph.
  static std::optional<InferencePlan> compile(const Sequential& net,
                                              std::size_t channels,
                                              std::size_t height,
                                              std::size_t width);

  std::size_t input_size() const { return input_size_; }
  std::size_t output_size() const { return output_size_; }

  /// Runs one sample: reads input_size() floats (CHW), writes output_size()
  /// floats.
  void forward(const float* in, float* out, Scratch& scratch) const;

  // --- stage-by-stage execution (for per-stage timing) ----------------------
  // forward(in, out, s) == load_input(in, s); run_stage(0..num_stages-1, s);
  // store_output(s, out).

  /// Stages in execution order: one per top-level module group (a conv
  /// block, a pool, a residual, the GAP+Linear tail).
  std::size_t num_stages() const { return stage_names_.size(); }
  const std::string& stage_name(std::size_t i) const {
    return stage_names_[i];
  }
  void load_input(const float* in, Scratch& scratch) const;
  void run_stage(std::size_t stage, Scratch& scratch) const;
  void store_output(const Scratch& scratch, float* out) const;

 private:
  /// One activation buffer in the arena: C planes of (h + 2 pad) x
  /// (w + 2 pad) floats whose border stays zero (the conv padding).
  struct Buffer {
    std::size_t offset = 0, c = 0, h = 0, w = 0, pad = 0;
    std::size_t row() const { return w + 2 * pad; }
    std::size_t plane() const { return (h + 2 * pad) * row(); }
    std::size_t size() const { return c * plane(); }
    std::size_t at(std::size_t ch, std::size_t y, std::size_t x) const {
      return ch * plane() + (y + pad) * row() + x + pad;
    }
  };

  enum class Activation { kNone, kGelu, kRelu };
  enum class StepKind { kConv, kPool, kTail };

  struct Step {
    StepKind kind = StepKind::kConv;
    std::size_t in = 0, out = 0;  ///< buffer indices
    std::size_t skip = kNoBuffer; ///< residual input added in the epilogue
    // conv: K = in_ch * kernel^2 taps, out_ch channels padded to ocp
    std::size_t out_ch = 0, ocp = 0, taps = 0;
    std::vector<float> weight;  ///< (taps, ocp): weight[k * ocp + oc]
    std::vector<float> bias, mean, istd, gamma, beta;  ///< ocp each
    /// Arena offset of the GELU memo (kNoBuffer without one): the last
    /// pre-activation of every computed element, plus its GELU when the
    /// output also holds a residual add. An element whose pre-activation
    /// repeats bit for bit skips its tanhf.
    std::size_t memo = kNoBuffer;
    bool has_bias = false, has_bn = false;
    Activation act = Activation::kNone;
    std::vector<std::uint32_t> tap;      ///< input offset of tap k
    // Per computed pixel, relative to the buffer start: the tap origin in
    // `in` and the channel-0 element in `out` (and in `skip`, which has
    // the same shape).
    std::vector<std::uint32_t> in_base, out_at;
    // pool
    std::size_t pool_kernel = 0, pool_stride = 0;
    // tail: GAP over `in`, then Linear (out_ch x in channels) into the
    // arena's output slot
  };

  static constexpr std::size_t kNoBuffer = static_cast<std::size_t>(-1);

  InferencePlan() = default;
  float* prepare(Scratch& scratch) const;
  void run_conv(const Step& s, float* arena) const;
  void run_pool(const Step& s, float* arena) const;
  void run_tail(const Step& s, float* arena) const;

  friend class PlanCompiler;

  std::uint64_t id_ = 0;
  std::size_t input_size_ = 0, output_size_ = 0;
  std::size_t arena_size_ = 0, output_offset_ = 0;
  std::vector<Buffer> buffers_;
  std::vector<Step> steps_;
  std::vector<std::string> stage_names_;
  std::vector<std::size_t> stage_begin_;  ///< first step of each stage, + end
};

}  // namespace omniboost::nn
