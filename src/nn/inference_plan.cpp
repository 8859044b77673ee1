#include "nn/inference_plan.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "nn/layers.hpp"
#include "tensor/simd.hpp"
#include "util/require.hpp"

namespace omniboost::nn {

namespace {

/// Eight float lanes (GCC/Clang vector extension). Element-wise + and *
/// are plain IEEE single-precision operations, so every lane computes
/// exactly what the scalar expression computes; the compiler lowers the
/// type to two SSE registers on baseline x86-64 and to one ymm register in
/// the target("avx2") instantiation below.
typedef float Lanes __attribute__((vector_size(32)));

constexpr std::size_t kLanes = 8;
/// tensor::gemm's kKC: the k extent of one partial sum.
constexpr std::size_t kKBlock = 128;
/// Output pixels per register tile (independent accumulator chains).
constexpr std::size_t kTile = 4;
/// Lanes-vectors of output channels per pass (24 channels).
constexpr std::size_t kMaxVectors = 3;

#define OB_PLAN_INLINE inline __attribute__((always_inline))

/// Raw view of one conv step over a scratch arena.
struct ConvView {
  const float* in;
  float* out;
  const float* skip;  ///< nullptr without a residual add
  const float* weight;
  const float* bias;
  const float* mean;
  const float* istd;
  const float* gamma;
  const float* beta;
  /// GELU memo (nullptr without one): per computed element (pixel-major,
  /// out_ch per pixel) the last pre-activation, and for a residual step,
  /// whose output also holds the skip, the GELU of it. Without memo_act
  /// the output element itself holds the GELU.
  float* memo_pre;
  float* memo_act;
  const std::uint32_t* tap;
  std::size_t taps;
  const std::uint32_t* in_base;  ///< per pixel, into `in`
  const std::uint32_t* out_at;   ///< per pixel, into `out` (and `skip`)
  std::size_t pixels;
  std::size_t out_ch, ocp, plane;  ///< plane: channel stride of out/skip
  bool has_bias, has_bn, gelu, relu;
};

/// Unaligned load (an out-parameter, not a return value: returning a
/// 32-byte vector from a baseline-x86 function changes its ABI).
OB_PLAN_INLINE void load(Lanes& v, const float* p) {
  std::memcpy(&v, p, sizeof v);
}

/// Output channels [oc0, oc0 + 8 V) of every computed pixel.
template <std::size_t V>
OB_PLAN_INLINE void conv_channels(const ConvView& c, std::size_t oc0) {
  const std::size_t chans = std::min(V * kLanes, c.out_ch - oc0);
  for (std::size_t p0 = 0; p0 < c.pixels; p0 += kTile) {
    const std::size_t n = std::min(kTile, c.pixels - p0);
    // A short last tile recomputes its last pixel in the spare slots.
    const float* x[kTile];
    for (std::size_t p = 0; p < kTile; ++p)
      x[p] = c.in + c.in_base[p0 + std::min(p, n - 1)];

    // tensor::gemm's order: one partial sum per 128-tap block, each from
    // +0 with a separate multiply and add, the partials added in order.
    Lanes total[kTile][V] = {};
    for (std::size_t k0 = 0; k0 < c.taps; k0 += kKBlock) {
      const std::size_t k1 = std::min(c.taps, k0 + kKBlock);
      Lanes acc[kTile][V];
      for (std::size_t p = 0; p < kTile; ++p)
        for (std::size_t v = 0; v < V; ++v) acc[p][v] = Lanes{};
      for (std::size_t k = k0; k < k1; ++k) {
        const float* wk = c.weight + k * c.ocp + oc0;
        Lanes w[V];
        for (std::size_t v = 0; v < V; ++v) load(w[v], wk + v * kLanes);
        const std::uint32_t t = c.tap[k];
        for (std::size_t p = 0; p < kTile; ++p) {
          const float s = x[p][t];
          const Lanes xs = {s, s, s, s, s, s, s, s};
          for (std::size_t v = 0; v < V; ++v) acc[p][v] += w[v] * xs;
        }
      }
      for (std::size_t p = 0; p < kTile; ++p)
        for (std::size_t v = 0; v < V; ++v)
          total[p][v] = k0 == 0 ? acc[p][v] : total[p][v] + acc[p][v];
    }

    // Epilogue: + bias, BatchNorm, activation, residual add, store.
    float y[kTile][V * kLanes];
    for (std::size_t p = 0; p < kTile; ++p) {
      for (std::size_t v = 0; v < V; ++v) {
        const std::size_t o = oc0 + v * kLanes;
        Lanes r = total[p][v];
        if (c.has_bias) {
          Lanes b;
          load(b, c.bias + o);
          r = r + b;
        }
        if (c.has_bn) {
          Lanes g, m, is, bt;
          load(g, c.gamma + o);
          load(m, c.mean + o);
          load(is, c.istd + o);
          load(bt, c.beta + o);
          r = g * (r - m) * is + bt;
        }
        std::memcpy(&y[p][v * kLanes], &r, sizeof r);
      }
    }
    for (std::size_t p = 0; p < n; ++p) {
      float* out = c.out + c.out_at[p0 + p];
      const float* skip =
          c.skip != nullptr ? c.skip + c.out_at[p0 + p] : nullptr;
      for (std::size_t ch = 0; ch < chans; ++ch) {
        float r = y[p][ch];
        const std::size_t oc = oc0 + ch;
        if (c.gelu) {
          if (c.memo_pre == nullptr) {
            r = GELU::value(r);
          } else {
            const std::size_t e = (p0 + p) * c.out_ch + oc;
            if (std::memcmp(&r, c.memo_pre + e, sizeof r) == 0) {
              if (c.memo_act == nullptr) continue;  // output still holds it
              r = c.memo_act[e];
            } else {
              c.memo_pre[e] = r;
              r = GELU::value(r);
              if (c.memo_act != nullptr) c.memo_act[e] = r;
            }
          }
        } else if (c.relu) {
          r = r > 0.0f ? r : 0.0f;
        }
        if (skip != nullptr) r = r + skip[oc * c.plane];
        out[oc * c.plane] = r;
      }
    }
  }
}

OB_PLAN_INLINE void conv_body(const ConvView& c) {
  for (std::size_t oc0 = 0; oc0 < c.out_ch; oc0 += kMaxVectors * kLanes) {
    switch (std::min(kMaxVectors, (c.ocp - oc0) / kLanes)) {
      case 1:
        conv_channels<1>(c, oc0);
        break;
      case 2:
        conv_channels<2>(c, oc0);
        break;
      default:
        conv_channels<3>(c, oc0);
        break;
    }
  }
}

void conv_portable(const ConvView& c) { conv_body(c); }

#if defined(__x86_64__) || defined(__i386__)
// AVX2 without FMA: the same body on ymm registers. Leaving out "fma" is
// what keeps every multiply and add separate, as in tensor::gemm.
__attribute__((target("avx2"))) void conv_avx2(const ConvView& c) {
  conv_body(c);
}
#define OB_PLAN_HAVE_AVX2 1
#endif

#undef OB_PLAN_INLINE

std::uint64_t next_plan_id() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

}  // namespace

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Walks a module graph into plan steps. Every method returns false on a
/// layer or arrangement the plan does not cover.
class PlanCompiler {
 public:
  using Plan = InferencePlan;

  explicit PlanCompiler(std::size_t pad) : pad_(pad) {}

  bool input(std::size_t c, std::size_t h, std::size_t w) {
    if (c == 0 || h == 0 || w == 0) return false;
    cur_ = add_buffer(c, h, w);
    plan_.input_size_ = c * h * w;
    return true;
  }

  bool walk(const Sequential& seq, bool top) {
    for (std::size_t i = 0; i < seq.size(); ++i) {
      const Module& m = seq.layer(i);
      if (tail_done_) return false;  // nothing may follow the tail
      if (const auto* conv = dynamic_cast<const Conv2d*>(&m)) {
        if (top)
          begin_stage("conv " + std::to_string(conv->in_channels()) + "->" +
                      std::to_string(conv->out_channels()));
        if (!add_conv(*conv)) return false;
      } else if (const auto* bn = dynamic_cast<const BatchNorm2d*>(&m)) {
        Plan::Step* s = open_conv();
        if (s == nullptr || s->has_bn || s->act != Plan::Activation::kNone ||
            bn->channels() != s->out_ch)
          return false;
        s->has_bn = true;
        for (std::size_t c = 0; c < s->out_ch; ++c) {
          s->mean[c] = bn->running_mean()[c];
          s->istd[c] = 1.0f / std::sqrt(bn->running_var()[c] + bn->eps());
          s->gamma[c] = bn->gamma()[c];
          s->beta[c] = bn->beta()[c];
        }
      } else if (dynamic_cast<const GELU*>(&m) != nullptr ||
                 dynamic_cast<const ReLU*>(&m) != nullptr) {
        Plan::Step* s = open_conv();
        if (s == nullptr || s->act != Plan::Activation::kNone) return false;
        s->act = dynamic_cast<const GELU*>(&m) != nullptr
                     ? Plan::Activation::kGelu
                     : Plan::Activation::kRelu;
      } else if (const auto* pool = dynamic_cast<const MaxPool2d*>(&m)) {
        if (top) begin_stage("maxpool " + std::to_string(pool->kernel_size()));
        if (!add_pool(*pool)) return false;
      } else if (const auto* res = dynamic_cast<const Residual*>(&m)) {
        const auto* body = dynamic_cast<const Sequential*>(&res->body());
        if (body == nullptr) return false;
        if (top)
          begin_stage("residual " +
                      std::to_string(plan_.buffers_[cur_].c));
        const std::size_t in = cur_;
        const std::size_t first = plan_.steps_.size();
        if (!walk(*body, false)) return false;
        Plan::Step* s = open_conv();
        const Plan::Buffer& a = plan_.buffers_[in];
        const Plan::Buffer& b = plan_.buffers_[cur_];
        if (s == nullptr || plan_.steps_.size() == first ||
            s->skip != Plan::kNoBuffer || a.c != b.c || a.h != b.h ||
            a.w != b.w)
          return false;
        s->skip = in;
      } else if (dynamic_cast<const GlobalAvgPool*>(&m) != nullptr) {
        const auto* fc = i + 1 < seq.size()
                             ? dynamic_cast<const Linear*>(&seq.layer(i + 1))
                             : nullptr;
        if (!top || fc == nullptr ||
            fc->in_features() != plan_.buffers_[cur_].c)
          return false;
        begin_stage("gap+linear " + std::to_string(fc->in_features()) +
                    "->" + std::to_string(fc->out_features()));
        add_tail(*fc);
        ++i;
      } else {
        return false;
      }
    }
    return true;
  }

  std::optional<Plan> finish() {
    if (!tail_done_) return std::nullopt;
    std::size_t offset = 0;
    for (Plan::Buffer& b : plan_.buffers_) {
      b.offset = offset;
      offset += b.size();
    }
    plan_.output_offset_ = offset;
    offset += plan_.output_size_ + gap_channels_;
    // GELU memos. A fresh arena is all zeros, which is a consistent memo
    // entry (output or memo_act 0 = GELU(0)) as long as GELU(+0) is +0.
    const float gelu0 = GELU::value(0.0f);
    std::uint32_t gelu0_bits;
    std::memcpy(&gelu0_bits, &gelu0, sizeof gelu0_bits);
    for (Plan::Step& s : plan_.steps_) {
      if (s.kind != Plan::StepKind::kConv || s.act != Plan::Activation::kGelu ||
          gelu0_bits != 0)
        continue;
      s.memo = offset;
      offset += s.in_base.size() * s.out_ch * (s.skip != Plan::kNoBuffer ? 2 : 1);
    }
    plan_.arena_size_ = offset;
    if (plan_.arena_size_ > std::numeric_limits<std::uint32_t>::max())
      return std::nullopt;
    plan_.stage_begin_.push_back(plan_.steps_.size());
    plan_.id_ = next_plan_id();
    return std::move(plan_);
  }

 private:
  std::size_t add_buffer(std::size_t c, std::size_t h, std::size_t w) {
    Plan::Buffer b;
    b.c = c;
    b.h = h;
    b.w = w;
    b.pad = pad_;
    plan_.buffers_.push_back(b);
    return plan_.buffers_.size() - 1;
  }

  void begin_stage(std::string name) {
    plan_.stage_names_.push_back(std::move(name));
    plan_.stage_begin_.push_back(plan_.steps_.size());
  }

  Plan::Step& add_step(Plan::StepKind kind, std::size_t out) {
    Plan::Step s;
    s.kind = kind;
    s.in = cur_;
    s.out = out;
    plan_.steps_.push_back(std::move(s));
    cur_ = out;
    return plan_.steps_.back();
  }

  /// The conv step that wrote the current buffer, if the last step is one.
  Plan::Step* open_conv() {
    if (plan_.steps_.empty()) return nullptr;
    Plan::Step& s = plan_.steps_.back();
    return s.kind == Plan::StepKind::kConv && s.out == cur_ ? &s : nullptr;
  }

  bool add_conv(const Conv2d& conv) {
    const Plan::Buffer in = plan_.buffers_[cur_];
    const std::size_t k = conv.kernel_size(), st = conv.stride(),
                      p = conv.padding();
    if (conv.in_channels() != in.c || p > pad_ || in.h + 2 * p < k ||
        in.w + 2 * p < k)
      return false;
    const std::size_t oh = (in.h + 2 * p - k) / st + 1;
    const std::size_t ow = (in.w + 2 * p - k) / st + 1;
    const std::size_t out = add_buffer(conv.out_channels(), oh, ow);
    Plan::Step& s = add_step(Plan::StepKind::kConv, out);
    s.out_ch = conv.out_channels();
    s.ocp = (s.out_ch + kLanes - 1) / kLanes * kLanes;
    s.taps = conv.in_channels() * k * k;
    s.weight.assign(s.taps * s.ocp, 0.0f);
    const float* w = conv.weight().data();
    for (std::size_t oc = 0; oc < s.out_ch; ++oc)
      for (std::size_t t = 0; t < s.taps; ++t)
        s.weight[t * s.ocp + oc] = w[oc * s.taps + t];
    s.has_bias = conv.has_bias();
    s.bias.assign(s.ocp, 0.0f);
    if (s.has_bias)
      for (std::size_t oc = 0; oc < s.out_ch; ++oc)
        s.bias[oc] = conv.bias()[oc];
    s.mean.assign(s.ocp, 0.0f);
    s.istd.assign(s.ocp, 1.0f);
    s.gamma.assign(s.ocp, 1.0f);
    s.beta.assign(s.ocp, 0.0f);
    // Output pixel (oy, ox), tap k = (ic, ky, kx) reads input element
    // (ic, oy*st + ky - p, ox*st + kx - p): in_base holds the pixel part
    // (shifted by the buffer's wider zero border), tap the rest.
    for (std::size_t ic = 0; ic < conv.in_channels(); ++ic)
      for (std::size_t ky = 0; ky < k; ++ky)
        for (std::size_t kx = 0; kx < k; ++kx)
          s.tap.push_back(
              static_cast<std::uint32_t>(ic * in.plane() + ky * in.row() + kx));
    const Plan::Buffer& ob = plan_.buffers_[out];
    for (std::size_t oy = 0; oy < oh; ++oy) {
      for (std::size_t ox = 0; ox < ow; ++ox) {
        s.in_base.push_back(static_cast<std::uint32_t>(
            (oy * st + pad_ - p) * in.row() + ox * st + pad_ - p));
        s.out_at.push_back(static_cast<std::uint32_t>(ob.at(0, oy, ox)));
      }
    }
    return true;
  }

  bool add_pool(const MaxPool2d& pool) {
    const Plan::Buffer in = plan_.buffers_[cur_];
    const std::size_t k = pool.kernel_size(), st = pool.stride();
    if (in.h < k || in.w < k) return false;
    const std::size_t oh = (in.h - k) / st + 1, ow = (in.w - k) / st + 1;
    // A conv block feeding the pool computes only the pixels it reads
    // (its pixel lists are still the full row-major grid here).
    if (Plan::Step* conv = open_conv()) {
      std::vector<char> need(in.h * in.w, 0);
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox = 0; ox < ow; ++ox)
          for (std::size_t ky = 0; ky < k; ++ky)
            for (std::size_t kx = 0; kx < k; ++kx)
              need[(oy * st + ky) * in.w + ox * st + kx] = 1;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < need.size(); ++i) {
        if (!need[i]) continue;
        conv->in_base[kept] = conv->in_base[i];
        conv->out_at[kept] = conv->out_at[i];
        ++kept;
      }
      conv->in_base.resize(kept);
      conv->out_at.resize(kept);
    }
    const std::size_t out = add_buffer(in.c, oh, ow);
    Plan::Step& s = add_step(Plan::StepKind::kPool, out);
    s.pool_kernel = k;
    s.pool_stride = st;
    return true;
  }

  void add_tail(const Linear& fc) {
    Plan::Step& s = add_step(Plan::StepKind::kTail, cur_);
    s.out_ch = fc.out_features();
    s.taps = fc.in_features();
    s.weight.assign(fc.weight().data(),
                    fc.weight().data() + s.out_ch * s.taps);
    s.has_bias = fc.has_bias();
    s.bias.assign(s.out_ch, 0.0f);
    if (s.has_bias)
      s.bias.assign(fc.bias().data(), fc.bias().data() + s.out_ch);
    plan_.output_size_ = s.out_ch;
    gap_channels_ = s.taps;
    tail_done_ = true;
  }

  Plan plan_;
  std::size_t pad_;
  std::size_t cur_ = 0;
  std::size_t gap_channels_ = 0;
  bool tail_done_ = false;
};

namespace {

/// Largest conv padding in the graph: every buffer gets this zero border.
std::size_t max_padding(const Module& m) {
  if (const auto* conv = dynamic_cast<const Conv2d*>(&m))
    return conv->padding();
  if (const auto* res = dynamic_cast<const Residual*>(&m))
    return max_padding(res->body());
  std::size_t pad = 0;
  if (const auto* seq = dynamic_cast<const Sequential*>(&m))
    for (std::size_t i = 0; i < seq->size(); ++i)
      pad = std::max(pad, max_padding(seq->layer(i)));
  return pad;
}

}  // namespace

std::optional<InferencePlan> InferencePlan::compile(const Sequential& net,
                                                    std::size_t channels,
                                                    std::size_t height,
                                                    std::size_t width) {
  if (net.training()) return std::nullopt;  // BatchNorm would use batch stats
  PlanCompiler compiler(max_padding(net));
  if (!compiler.input(channels, height, width) || !compiler.walk(net, true))
    return std::nullopt;
  return compiler.finish();
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

float* InferencePlan::prepare(Scratch& scratch) const {
  if (scratch.plan_id != id_) {
    // Borders must read as zero padding; interiors are overwritten by
    // every forward.
    scratch.arena.assign(arena_size_, 0.0f);
    scratch.plan_id = id_;
  }
  return scratch.arena.data();
}

void InferencePlan::load_input(const float* in, Scratch& scratch) const {
  float* arena = prepare(scratch);
  const Buffer& b = buffers_.front();
  for (std::size_t c = 0; c < b.c; ++c)
    for (std::size_t y = 0; y < b.h; ++y)
      std::memcpy(arena + b.offset + b.at(c, y, 0), in + (c * b.h + y) * b.w,
                  b.w * sizeof(float));
}

void InferencePlan::run_stage(std::size_t stage, Scratch& scratch) const {
  OB_REQUIRE(stage < num_stages(), "InferencePlan::run_stage: no such stage");
  float* arena = prepare(scratch);
  for (std::size_t i = stage_begin_[stage]; i < stage_begin_[stage + 1]; ++i) {
    const Step& s = steps_[i];
    switch (s.kind) {
      case StepKind::kConv:
        run_conv(s, arena);
        break;
      case StepKind::kPool:
        run_pool(s, arena);
        break;
      case StepKind::kTail:
        run_tail(s, arena);
        break;
    }
  }
}

void InferencePlan::store_output(const Scratch& scratch, float* out) const {
  OB_REQUIRE(scratch.plan_id == id_,
             "InferencePlan::store_output: scratch not bound to this plan");
  std::memcpy(out, scratch.arena.data() + output_offset_,
              output_size_ * sizeof(float));
}

void InferencePlan::forward(const float* in, float* out,
                            Scratch& scratch) const {
  load_input(in, scratch);
  for (std::size_t i = 0; i < num_stages(); ++i) run_stage(i, scratch);
  store_output(scratch, out);
}

void InferencePlan::run_conv(const Step& s, float* arena) const {
  const Buffer& out = buffers_[s.out];
  ConvView c{};
  c.in = arena + buffers_[s.in].offset;
  c.out = arena + out.offset;
  c.skip = s.skip != kNoBuffer ? arena + buffers_[s.skip].offset : nullptr;
  c.weight = s.weight.data();
  c.bias = s.bias.data();
  c.mean = s.mean.data();
  c.istd = s.istd.data();
  c.gamma = s.gamma.data();
  c.beta = s.beta.data();
  c.memo_pre = s.memo != kNoBuffer ? arena + s.memo : nullptr;
  c.memo_act = s.memo != kNoBuffer && s.skip != kNoBuffer
                   ? c.memo_pre + s.in_base.size() * s.out_ch
                   : nullptr;
  c.tap = s.tap.data();
  c.taps = s.taps;
  c.in_base = s.in_base.data();
  c.out_at = s.out_at.data();
  c.pixels = s.in_base.size();
  c.out_ch = s.out_ch;
  c.ocp = s.ocp;
  c.plane = out.plane();
  c.has_bias = s.has_bias;
  c.has_bn = s.has_bn;
  c.gelu = s.act == Activation::kGelu;
  c.relu = s.act == Activation::kRelu;
#ifdef OB_PLAN_HAVE_AVX2
  static const bool avx2 = tensor::simd_supported();
  if (avx2) {
    conv_avx2(c);
    return;
  }
#endif
  conv_portable(c);
}

void InferencePlan::run_pool(const Step& s, float* arena) const {
  // MaxPool2d's scan order: the window's first element, then a strict >
  // over the window row by row, so the first maximum wins.
  const Buffer& in = buffers_[s.in];
  const Buffer& out = buffers_[s.out];
  const std::size_t k = s.pool_kernel, st = s.pool_stride;
  for (std::size_t c = 0; c < out.c; ++c) {
    const float* src = arena + in.offset + in.at(c, 0, 0);
    for (std::size_t oy = 0; oy < out.h; ++oy) {
      float* dst = arena + out.offset + out.at(c, oy, 0);
      for (std::size_t ox = 0; ox < out.w; ++ox) {
        const float* win = src + oy * st * in.row() + ox * st;
        float best = win[0];
        for (std::size_t ky = 0; ky < k; ++ky)
          for (std::size_t kx = 0; kx < k; ++kx)
            if (win[ky * in.row() + kx] > best) best = win[ky * in.row() + kx];
        dst[ox] = best;
      }
    }
  }
}

void InferencePlan::run_tail(const Step& s, float* arena) const {
  // GlobalAvgPool: a double sum in plane order, divided, cast to float.
  const Buffer& in = buffers_[s.in];
  float* gap = arena + output_offset_ + output_size_;
  for (std::size_t c = 0; c < in.c; ++c) {
    double sum = 0.0;
    for (std::size_t y = 0; y < in.h; ++y) {
      const float* row = arena + in.offset + in.at(c, y, 0);
      for (std::size_t x = 0; x < in.w; ++x) sum += row[x];
    }
    gap[c] = static_cast<float>(sum / static_cast<double>(in.h * in.w));
  }
  // Linear under tensor::gemm's order, then + bias.
  float* out = arena + output_offset_;
  for (std::size_t o = 0; o < s.out_ch; ++o) {
    const float* w = s.weight.data() + o * s.taps;
    float y = 0.0f;
    for (std::size_t k0 = 0; k0 < s.taps; k0 += kKBlock) {
      const std::size_t k1 = std::min(s.taps, k0 + kKBlock);
      float acc = 0.0f;
      for (std::size_t k = k0; k < k1; ++k) acc += gap[k] * w[k];
      y = k0 == 0 ? acc : y + acc;
    }
    if (s.has_bias) y = y + s.bias[o];
    out[o] = y;
  }
}

}  // namespace omniboost::nn
