/// \file layers.cpp
/// The in-process layer suite: each layer timed from outside, around calls
/// into its public functions, at the shapes and inputs a run produces.

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/estimator.hpp"
#include "harness.hpp"
#include "nn/layers.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

using ob::util::Json;
namespace core = ob::core;
namespace workload = ob::workload;

/// Median wall time of \p reps calls of \p body, in microseconds.
template <typename Body>
double median_us(std::size_t reps, Body&& body) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    body();
    us.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  return ob::util::percentile(std::move(us), 50.0);
}

/// One stage of the estimator CNN, kept standalone so it can be timed.
struct Stage {
  std::string kind;  ///< conv | batchnorm | gelu | maxpool | gap | linear
  std::unique_ptr<ob::nn::Module> module;
  /// On the last stage of a residual body: the index of the body's first
  /// stage, whose input the identity skip adds to this stage's output.
  int skip_from = -1;
};

/// The estimator's stage sequence (core/estimator.cpp build_net with the
/// default EstimatorConfig: widths 8/16/24, GELU), flattened: the two
/// residual bodies appear inline, their identity skips marked on their last
/// stage. The stages draw their weights from the estimator's init seed in
/// the same order, so the chain computes what a fresh estimator computes;
/// run_layer_suite checks that it still does.
std::vector<Stage> estimator_stages() {
  std::vector<Stage> s;
  const auto block = [&s](std::size_t in, std::size_t out) {
    s.push_back({"conv", std::make_unique<ob::nn::Conv2d>(in, out, 3, 1, 1)});
    s.push_back({"batchnorm", std::make_unique<ob::nn::BatchNorm2d>(out)});
    s.push_back({"gelu", std::make_unique<ob::nn::GELU>()});
  };
  const auto residual = [&s, &block](std::size_t ch) {
    const int first = static_cast<int>(s.size());
    block(ch, ch);
    block(ch, ch);
    s.back().skip_from = first;
  };
  block(3, 8);
  s.push_back({"maxpool", std::make_unique<ob::nn::MaxPool2d>(2)});
  block(8, 16);
  s.push_back({"maxpool", std::make_unique<ob::nn::MaxPool2d>(2)});
  residual(16);
  block(16, 24);
  residual(24);
  s.push_back({"gap", std::make_unique<ob::nn::GlobalAvgPool>()});
  s.push_back({"linear", std::make_unique<ob::nn::Linear>(24, 3)});
  ob::util::Rng rng(core::EstimatorConfig{}.init_seed);
  for (Stage& st : s) {
    st.module->init(rng);
    st.module->set_training(false);
  }
  return s;
}

/// Multiply-adds x 2 of a conv or linear stage, from its tensor shapes.
double stage_flops(const std::string& kind, const ob::tensor::Tensor& in,
                   const ob::tensor::Tensor& out) {
  if (kind == "conv") {
    const double k = 3.0 * 3.0 * static_cast<double>(in.extent(1));
    return 2.0 * k * static_cast<double>(out.size());
  }
  if (kind == "linear")
    return 2.0 * static_cast<double>(in.extent(1)) *
           static_cast<double>(out.size());
  return 0.0;
}

}  // namespace

Json run_layer_suite(const LayerInputs& in) {
  Json out = Json::object();
  const auto put = [&out](const std::string& k, double v) {
    out.set(k, Json::number(v));
  };

  // --- workload: clause parsing and whole-trace validation.
  const std::size_t n = in.clauses.size();
  std::vector<workload::ScenarioEvent> events;
  events.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    events.push_back(workload::parse_event_clause(
        in.clauses[i], 1e-3 * static_cast<double>(i)));
  put("workload.parse_us", median_us(3, [&] {
        for (std::size_t i = 0; i < n; ++i)
          workload::parse_event_clause(in.clauses[i], 0.0);
      }) / static_cast<double>(std::max<std::size_t>(n, 1)));
  for (const auto& [label, len] :
       {std::pair<const char*, std::size_t>{"n1k", 1000},
        std::pair<const char*, std::size_t>{"n10k", 10000}}) {
    double ms = 0.0;
    if (n >= len) {
      const std::vector<workload::ScenarioEvent> prefix(
          events.begin(), events.begin() + static_cast<std::ptrdiff_t>(len));
      std::vector<double> runs;
      for (int r = 0; r < 3; ++r) {
        std::vector<workload::ScenarioEvent> copy = prefix;
        const Clock::time_point t0 = Clock::now();
        const workload::Scenario s(std::move(copy));
        runs.push_back(1e3 * seconds_between(t0, Clock::now()));
      }
      ms = ob::util::percentile(std::move(runs), 50.0);
    }
    put(std::string("workload.validate_ms.") + label, ms);
  }

  // --- core/cluster: the daemon's Greedy 4-board fleet, in process.
  DecisionStats mirror;
  std::vector<DecidedSample> decided = in.decided;
  {
    const core::Cluster cluster(*in.zoo, core::make_heterogeneous_fleet(4),
                                daemon_cluster_config());
    const auto policy = core::make_placement_policy("least-loaded");
    core::ClusterSession session(
        cluster, timed_greedy_factory(*in.zoo, cluster, mirror), *policy);
    std::vector<double> apply_us;
    double finish_1k = 0.0, finish_10k = 0.0, format_10k = 0.0;
    const std::size_t len = std::min<std::size_t>(n, 10000);
    for (std::size_t i = 0; i < len; ++i) {
      const Clock::time_point t0 = Clock::now();
      session.apply(events[i]);
      apply_us.push_back(1e6 * seconds_between(t0, Clock::now()));
      if (i + 1 == 1000)
        finish_1k = 1e-3 * median_us(3, [&] { session.finish(); });
      if (i + 1 == 10000) {
        finish_10k = 1e-3 * median_us(3, [&] { session.finish(); });
        const core::ClusterReport r = session.finish();
        format_10k =
            1e-3 * median_us(3, [&] { core::format_cluster_report(r); });
      }
    }
    put("cluster.apply_us", ob::util::percentile(apply_us, 50.0));
    double apply_sum_us = 0.0;
    for (const double us : apply_us) apply_sum_us += us;
    put("mirror.apply_mean_ms",
        apply_us.empty() ? 0.0
                         : 1e-3 * apply_sum_us /
                               static_cast<double>(apply_us.size()));
    put("cluster.finish_ms.n1k", finish_1k);
    put("cluster.finish_ms.n10k", finish_10k);
    put("cluster.format_ms.n10k", format_10k);
    put("mirror.decide_ms",
        mirror.decisions > 0
            ? 1e3 * mirror.decide_s / static_cast<double>(mirror.decisions)
            : 0.0);
    put("mirror.decisions", static_cast<double>(mirror.decisions));
  }
  if (decided.empty()) decided = mirror.samples;

  // Inputs at the run's own shapes: the masked embedding of each decision.
  std::vector<ob::tensor::Tensor> inputs;
  for (const DecidedSample& d : decided)
    inputs.push_back(in.embedding->masked_input(d.workload, d.mapping));

  // --- nn: each stage of the estimator forward, at batch 1 (the default
  // MCTS wave width). The identity adds of the residual skips are not timed.
  {
    std::vector<Stage> stages = estimator_stages();
    std::map<std::string, double> us;
    double flops = 0.0;
    std::size_t params = 0;
    bool shapes_match = true;
    std::vector<ob::tensor::Tensor> stage_in;
    ob::tensor::Tensor x = inputs.at(0);
    ob::tensor::Shape shape = x.shape();
    shape.insert(shape.begin(), 1);
    x = x.reshaped(shape);
    for (Stage& st : stages) {
      ob::tensor::Tensor y;
      us[st.kind] += median_us(51, [&] { y = st.module->forward(x); });
      flops += stage_flops(st.kind, x, y);
      params += st.module->num_params();
      stage_in.push_back(std::move(x));
      if (st.skip_from >= 0) {
        const ob::tensor::Tensor& skip =
            stage_in[static_cast<std::size_t>(st.skip_from)];
        if (skip.shape() == y.shape()) {
          y += skip;
        } else {
          shapes_match = false;
        }
      }
      x = std::move(y);
    }
    for (const char* kind :
         {"conv", "batchnorm", "gelu", "maxpool", "gap", "linear"})
      put(std::string("nn.") + kind + "_us", us[kind]);
    put("nn.forward_flops", flops);

    // The copy must still be the estimator's network: as many parameters
    // as the run's estimator, and the same output as a fresh estimator
    // (same init seed) on the same input.
    const core::ThroughputEstimator fresh(in.embedding->models_dim(),
                                          in.embedding->layers_dim());
    const std::array<double, 3> want = fresh.predict_normalized(inputs.at(0));
    bool outputs_match = shapes_match && x.size() == want.size();
    for (std::size_t i = 0; outputs_match && i < want.size(); ++i)
      outputs_match = std::abs(static_cast<double>(x[i]) - want[i]) <= 1e-5;
    put("nn.stages_match",
        outputs_match && params == in.estimator->num_params() ? 1.0 : 0.0);
  }

  // --- core/estimator: one predict_rewards call per decided input.
  {
    std::vector<double> us;
    for (int r = 0; r < 5; ++r)
      for (const ob::tensor::Tensor& t : inputs) {
        const std::vector<ob::tensor::Tensor> wave{t};
        us.push_back(
            median_us(1, [&] { in.estimator->predict_rewards(wave); }));
      }
    put("estimator.query_us", ob::util::percentile(std::move(us), 50.0));
  }

  // --- sim: the DES measurement and a traced replay with start delays.
  {
    std::vector<double> measure, replay;
    for (const DecidedSample& d : decided) {
      const ob::sim::NetworkList nets = d.workload.resolve(*in.zoo);
      const std::vector<double> delays(nets.size(), 2e-3);
      measure.push_back(
          median_us(3, [&] { in.board->simulate(nets, d.mapping); }));
      replay.push_back(median_us(
          3, [&] { in.board->simulate_traced(nets, d.mapping, delays); }));
    }
    put("des.measure_us", ob::util::percentile(std::move(measure), 50.0));
    put("des.replay_us", ob::util::percentile(std::move(replay), 50.0));
  }
  return out;
}

}  // namespace perfbench
