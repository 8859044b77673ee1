// One estimator, many threads: predict* is const and reentrant (the gemm
// kernel's inference plan keeps its working memory per thread; the module
// graph writes no layer state in inference mode), so root-parallel search
// workers share one estimator instead of cloning it. Runs in the
// ThreadSanitizer lane (tools/run_tier1.sh --tsan).

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "models/zoo.hpp"
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

/// The quickly-trained estimator of tests/estimator_batch_test.cpp.
std::shared_ptr<const core::ThroughputEstimator> trained_estimator() {
  static const auto est = [] {
    const device::DeviceSpec spec = device::make_hikey970();
    const sim::DesSimulator board(spec);
    core::DatasetConfig dc;
    dc.samples = 60;
    const core::SampleSet data =
        core::generate_dataset(zoo(), embedding(), board, dc);
    auto e = std::make_shared<core::ThroughputEstimator>(
        embedding().models_dim(), embedding().layers_dim());
    nn::L1Loss l1;
    nn::TrainConfig tc;
    tc.epochs = 4;
    e->fit(data, 10, l1, tc);
    return e;
  }();
  return est;
}

std::string digits(const sim::Assignment& a) {
  std::string s;
  for (const device::ComponentId c : a)
    s += static_cast<char>('0' + device::component_index(c));
  return s;
}

TEST(EstimatorConcurrency, FourThreadsShareOneConstEstimator) {
  // 4 threads x 200 predict_rewards calls on ONE const estimator must give
  // exactly the serial answers, under the plan (gemm) and the module graph
  // (reference).
  util::Rng rng(41);
  std::vector<Tensor> pool;
  for (int i = 0; i < 24; ++i) {
    const workload::Workload w = workload::random_mix(rng, 1 + rng.below(5));
    pool.push_back(embedding().masked_input(
        w, workload::random_mapping(rng, zoo(), w, 3)));
  }
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kCalls = 200;
  // Call c of thread t scores a wave of 1-3 pool inputs.
  const auto wave = [&pool](std::size_t t, std::size_t c) {
    std::vector<Tensor> xs;
    for (std::size_t i = 0; i <= (t + c) % 3; ++i)
      xs.push_back(pool[(7 * t + 5 * c + i) % pool.size()]);
    return xs;
  };

  for (const KernelKind kind : {KernelKind::kGemm, KernelKind::kReference}) {
    std::stringstream blob;
    trained_estimator()->save(blob);
    auto owned = std::make_shared<core::ThroughputEstimator>(
        core::ThroughputEstimator::load(blob));
    owned->set_kernel(kind);
    const std::shared_ptr<const core::ThroughputEstimator> est = owned;

    std::vector<std::vector<std::vector<double>>> serial(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t)
      for (std::size_t c = 0; c < kCalls; ++c)
        serial[t].push_back(est->predict_rewards(wave(t, c)));

    std::vector<std::vector<std::vector<double>>> got(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t c = 0; c < kCalls; ++c)
          got[t].push_back(est->predict_rewards(wave(t, c)));
      });
    }
    for (std::thread& th : threads) th.join();
    for (std::size_t t = 0; t < kThreads; ++t)
      EXPECT_EQ(got[t], serial[t])
          << nn::kernel_name(kind) << " thread " << t;
  }
}

TEST(EstimatorConcurrency, FourWorkerScheduleMatchesTheGolden) {
  // Root-parallel search with 4 workers sharing one estimator decides
  // exactly what the per-worker estimator clones decided: the golden below
  // was captured before the clones were removed.
  core::OmniBoostConfig cfg;
  cfg.mcts.budget = 200;
  cfg.mcts.seed = 13;
  cfg.workers = 4;
  core::OmniBoostScheduler sched(zoo(), embedding(), trained_estimator(),
                                 cfg);
  const workload::Workload w{{models::ModelId::kAlexNet,
                              models::ModelId::kSqueezeNet}};
  const core::ScheduleResult r = sched.schedule(w);
  ASSERT_EQ(r.mapping.num_dnns(), 2u);
  EXPECT_EQ(digits(r.mapping.assignment(0)), "21110000000");
  EXPECT_EQ(digits(r.mapping.assignment(1)), "0110000000000000000000");
  EXPECT_EQ(r.expected_reward, 0x1.376d7810b9b61p-1);
  EXPECT_EQ(r.evaluations, 197u);
  EXPECT_EQ(r.cache_hits, 3u);
}

}  // namespace
