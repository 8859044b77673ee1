// The compiled inference plan (nn/inference_plan.hpp) against the module
// graph it was compiled from:
//  * bit-identity (memcmp on the float outputs) with Sequential::forward
//    under the gemm kernel, for fresh, trained and save/load round-tripped
//    estimators: every zoo model alone, 200 seeded random mixes of 1-5
//    streams, batch 1 and batch 16, and an all-zero input. This is what
//    keeps decisions bit-identical (DETERMINISM D3: the reference kernel
//    never runs the plan; D4: a mapping's reward is one well-defined
//    double whichever path computes it);
//  * the estimator routes only the gemm kernel through the plan;
//  * graphs the plan cannot run are refused, not mis-run.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <sstream>
#include <vector>

#include "core/dataset.hpp"
#include "core/estimator.hpp"
#include "models/zoo.hpp"
#include "nn/inference_plan.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "sim/des.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace {

using namespace omniboost;
using nn::KernelKind;
using tensor::Tensor;

const models::ModelZoo& zoo() {
  static const models::ModelZoo z;
  return z;
}

const core::EmbeddingTensor& embedding() {
  // CostModel keeps a pointer into the spec, so the spec must outlive it.
  static const device::DeviceSpec spec = device::make_hikey970();
  static const device::CostModel cost(spec);
  static const core::EmbeddingTensor e(zoo(), cost);
  return e;
}

core::ThroughputEstimator fresh_estimator(core::EstimatorConfig cfg = {}) {
  return core::ThroughputEstimator(embedding().models_dim(),
                                   embedding().layers_dim(), cfg);
}

const core::ThroughputEstimator& trained_estimator() {
  static const core::ThroughputEstimator est = [] {
    const device::DeviceSpec spec = device::make_hikey970();
    const sim::DesSimulator board(spec);
    core::DatasetConfig dc;
    dc.samples = 60;
    const core::SampleSet data =
        core::generate_dataset(zoo(), embedding(), board, dc);
    core::ThroughputEstimator e = fresh_estimator();
    nn::L1Loss l1;
    nn::TrainConfig tc;
    tc.epochs = 4;
    e.fit(data, 10, l1, tc);
    return e;
  }();
  return est;
}

core::ThroughputEstimator round_trip(const core::ThroughputEstimator& est) {
  std::stringstream blob;
  est.save(blob);
  return core::ThroughputEstimator::load(blob);
}

/// The parity corpus: every zoo model alone (3 mappings each), 200 seeded
/// random mixes of 1-5 streams with random mappings, and an all-zero input.
std::vector<Tensor> corpus() {
  std::vector<Tensor> inputs;
  util::Rng rng(101);
  for (const models::ModelId id : models::kAllModels) {
    const workload::Workload w{{id}};
    for (int i = 0; i < 3; ++i)
      inputs.push_back(embedding().masked_input(
          w, workload::random_mapping(rng, zoo(), w, 3)));
  }
  for (int i = 0; i < 200; ++i) {
    const std::size_t streams = 1 + rng.below(5);
    const workload::Workload w = workload::random_mix(rng, streams);
    inputs.push_back(embedding().masked_input(
        w, workload::random_mapping(rng, zoo(), w, 3)));
  }
  inputs.emplace_back(inputs.front().shape());  // all zeros
  return inputs;
}

/// Network outputs for \p inputs through the module graph, \p batch
/// samples per forward.
std::vector<float> module_outputs(nn::Sequential& net,
                                  const std::vector<Tensor>& inputs,
                                  std::size_t batch) {
  std::vector<float> out;
  for (std::size_t i = 0; i < inputs.size(); i += batch) {
    const std::size_t n = std::min(batch, inputs.size() - i);
    const std::vector<Tensor> part(inputs.begin() + i,
                                   inputs.begin() + i + n);
    const Tensor y = net.forward(tensor::stack(part));
    out.insert(out.end(), y.data(), y.data() + y.size());
  }
  return out;
}

std::vector<float> plan_outputs(const nn::InferencePlan& plan,
                                const std::vector<Tensor>& inputs) {
  std::vector<float> out(3 * inputs.size());
  nn::InferencePlan::Scratch scratch;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    plan.forward(inputs[i].data(), out.data() + 3 * i, scratch);
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Index of the first sample whose outputs differ (for failure messages).
std::size_t first_mismatch(const std::vector<float>& a,
                           const std::vector<float>& b) {
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0) return i / 3;
  return a.size() / 3;
}

/// Plan vs gemm module forward (batch 1 and 16) vs the estimator's own
/// predict_normalized / predict_batch, all bit for bit.
void expect_plan_parity(const core::ThroughputEstimator& est) {
  ASSERT_EQ(est.kernel(), KernelKind::kGemm);
  const std::vector<Tensor> inputs = corpus();
  const std::unique_ptr<nn::Sequential> net = est.network_copy();
  const std::optional<nn::InferencePlan> plan = nn::InferencePlan::compile(
      *net, device::kNumComponents, embedding().models_dim(),
      embedding().layers_dim());
  ASSERT_TRUE(plan.has_value());

  const std::vector<float> want1 = module_outputs(*net, inputs, 1);
  const std::vector<float> want16 = module_outputs(*net, inputs, 16);
  ASSERT_TRUE(same_bits(want1, want16)) << "module batch independence";
  const std::vector<float> got = plan_outputs(*plan, inputs);
  EXPECT_TRUE(same_bits(got, want1))
      << "first differing sample " << first_mismatch(got, want1);

  // The estimator serves the same bits (as doubles) one by one and batched.
  std::vector<float> single;
  for (const Tensor& x : inputs)
    for (const double v : est.predict_normalized(x))
      single.push_back(static_cast<float>(v));
  for (std::size_t i = 0; i < inputs.size(); i += 16) {
    const std::vector<Tensor> part(
        inputs.begin() + i,
        inputs.begin() + std::min(inputs.size(), i + 16));
    // predict_batch denormalizes: compare it with predict().
    const auto rates = est.predict_batch(part);
    for (std::size_t j = 0; j < part.size(); ++j) {
      const auto one = est.predict(part[j]);
      for (std::size_t d = 0; d < 3; ++d) EXPECT_EQ(rates[j][d], one[d]);
    }
  }
  EXPECT_TRUE(same_bits(single, want1))
      << "first differing sample " << first_mismatch(single, want1);
}

TEST(InferencePlanParity, FreshEstimatorMatchesTheGemmModulePathBitForBit) {
  expect_plan_parity(fresh_estimator());
}

TEST(InferencePlanParity, TrainedEstimatorMatchesTheGemmModulePathBitForBit) {
  expect_plan_parity(trained_estimator());
}

TEST(InferencePlanParity, RoundTrippedEstimatorMatchesBitForBit) {
  const core::ThroughputEstimator loaded = round_trip(trained_estimator());
  expect_plan_parity(loaded);
  // And it answers exactly as the estimator it was saved from.
  for (const Tensor& x : corpus()) {
    const auto a = trained_estimator().predict_normalized(x);
    const auto b = loaded.predict_normalized(x);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), sizeof a), 0);
  }
}

TEST(InferencePlanParity, ReluAblationAndOtherWidthsCompileToo) {
  core::EstimatorConfig relu;
  relu.use_gelu = false;
  expect_plan_parity(fresh_estimator(relu));
  core::EstimatorConfig wide;  // 10 and 40 channels: padded lanes, 2 passes
  wide.c1 = 5;
  wide.c2 = 10;
  wide.c3 = 40;
  expect_plan_parity(fresh_estimator(wide));
}

TEST(InferencePlanParity, OnlyTheGemmKernelRunsThePlan) {
  // reference and simd bypass the plan: their predictions are exactly
  // their own module graph's outputs.
  const std::vector<Tensor> inputs = corpus();
  for (const KernelKind kind : {KernelKind::kReference, KernelKind::kSimd}) {
    core::ThroughputEstimator est = round_trip(trained_estimator());
    est.set_kernel(kind);
    const std::unique_ptr<nn::Sequential> net = est.network_copy();
    const std::vector<float> want = module_outputs(*net, inputs, 1);
    std::vector<float> got;
    for (const Tensor& x : inputs)
      for (const double v : est.predict_normalized(x))
        got.push_back(static_cast<float>(v));
    EXPECT_TRUE(same_bits(got, want)) << nn::kernel_name(kind);
  }
}

TEST(InferencePlan, OneScratchServesSeveralPlans) {
  // A scratch arena rebinds (and re-zeroes its padding) when it moves to a
  // plan of another layout.
  const core::ThroughputEstimator a = fresh_estimator();
  core::EstimatorConfig cfg;
  cfg.c1 = 4;
  cfg.init_seed = 9;
  const core::ThroughputEstimator b = fresh_estimator(cfg);
  const auto pa = nn::InferencePlan::compile(
      *a.network_copy(), 3, embedding().models_dim(), embedding().layers_dim());
  const auto pb = nn::InferencePlan::compile(
      *b.network_copy(), 3, embedding().models_dim(), embedding().layers_dim());
  ASSERT_TRUE(pa && pb);
  const std::vector<Tensor> inputs = corpus();
  const std::vector<float> want_a = plan_outputs(*pa, inputs);
  const std::vector<float> want_b = plan_outputs(*pb, inputs);
  nn::InferencePlan::Scratch shared;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    float ya[3], yb[3];
    pa->forward(inputs[i].data(), ya, shared);
    pb->forward(inputs[i].data(), yb, shared);
    ASSERT_EQ(std::memcmp(ya, &want_a[3 * i], sizeof ya), 0) << i;
    ASSERT_EQ(std::memcmp(yb, &want_b[3 * i], sizeof yb), 0) << i;
  }
}

TEST(InferencePlan, StagesComposeToTheForward) {
  const core::ThroughputEstimator& est = trained_estimator();
  const auto plan = nn::InferencePlan::compile(
      *est.network_copy(), 3, embedding().models_dim(),
      embedding().layers_dim());
  ASSERT_TRUE(plan.has_value());
  // conv, pool, conv, pool, residual, conv, residual, gap+linear
  ASSERT_EQ(plan->num_stages(), 8u);
  EXPECT_EQ(plan->stage_name(0), "conv 3->8");
  EXPECT_EQ(plan->stage_name(1), "maxpool 2");
  EXPECT_EQ(plan->stage_name(4), "residual 16");
  EXPECT_EQ(plan->stage_name(7), "gap+linear 24->3");
  const Tensor x = corpus()[5];
  float whole[3], staged[3];
  nn::InferencePlan::Scratch s;
  plan->forward(x.data(), whole, s);
  plan->load_input(x.data(), s);
  for (std::size_t i = 0; i < plan->num_stages(); ++i) plan->run_stage(i, s);
  plan->store_output(s, staged);
  EXPECT_EQ(std::memcmp(whole, staged, sizeof whole), 0);
}

TEST(InferencePlan, RefusesGraphsItCannotRun) {
  // Training mode: BatchNorm would normalize with batch statistics.
  {
    auto net = fresh_estimator().network_copy();
    net->set_training(true);
    EXPECT_FALSE(nn::InferencePlan::compile(*net, 3, 11, 37).has_value());
  }
  // No GAP+Linear tail.
  {
    nn::Sequential net;
    net.emplace<nn::Conv2d>(3, 8, 3, 1, 1);
    net.set_training(false);
    EXPECT_FALSE(nn::InferencePlan::compile(net, 3, 11, 37).has_value());
  }
  // A layer the plan has no step for.
  {
    nn::Sequential net;
    net.emplace<nn::Conv2d>(3, 8, 3, 1, 1);
    net.emplace<nn::Flatten>();
    net.emplace<nn::Linear>(8 * 11 * 37, 3);
    net.set_training(false);
    EXPECT_FALSE(nn::InferencePlan::compile(net, 3, 11, 37).has_value());
  }
  // Channel mismatch between the input and the first conv.
  EXPECT_FALSE(nn::InferencePlan::compile(*fresh_estimator().network_copy(),
                                          4, 11, 37)
                   .has_value());
}

TEST(InferenceMode, ForwardStoresNoBackwardCaches) {
  // An inference-mode forward leaves nothing for backward: backward fails
  // its "before forward" check, even after an earlier training forward.
  nn::Sequential net;
  net.emplace<nn::Conv2d>(3, 4, 3, 1, 1);
  net.emplace<nn::BatchNorm2d>(4);
  net.emplace<nn::GELU>();
  net.emplace<nn::MaxPool2d>(2);
  net.emplace<nn::GlobalAvgPool>();
  net.emplace<nn::Linear>(4, 2);
  util::Rng rng(3);
  net.init(rng);
  Tensor x({2, 3, 6, 6});
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  net.forward(x);  // training forward fills the caches
  net.set_training(false);
  const Tensor y = net.forward(x);
  EXPECT_THROW(net.backward(Tensor(y.shape())), std::invalid_argument);
  for (std::size_t i = 0; i < net.size(); ++i) {
    // Each layer refuses on its own too. (Linear's input is (N, F).)
    const Tensor g = i + 1 == net.size() ? Tensor(y.shape())
                                         : Tensor({2, 4, 3, 3});
    EXPECT_THROW(net.layer(i).backward(g), std::invalid_argument)
        << net.layer(i).name();
  }
}

}  // namespace
