/// \file bench_runtime_overhead.cpp
/// Regenerates the §V-B run-time comparison with google-benchmark: the
/// decision latency of each scheduler on a fixed 4-DNN mix, plus the one-off
/// costs the paper discusses (MOSAIC's 14k-point data collection, the GA's
/// per-mix on-board retraining, OmniBoost's 500 estimator queries).
///
/// Paper shape to reproduce: Baseline ~ 0; MOSAIC inference fast (~1 s on
/// the board) but with a large offline collection cost; GA minutes per mix
/// (board time); OmniBoost a constant 500-query search (~30 s on the board,
/// milliseconds here because the estimator is native C++ rather than a
/// Python stack).

// google-benchmark powers the micro-benchmark section only; the result
// tables (and their JSON exports) must not disappear on hosts without it.
#ifdef OMNIBOOST_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include <time.h>

#include "nn/inference_plan.hpp"
#include "nn/kernel.hpp"
#include "nn/layers.hpp"
#include "tensor/simd.hpp"
#include "tensor/tensor.hpp"
#include "bench_common.hpp"

using namespace omniboost;

namespace {

bench::Context& ctx() {
  static bench::Context c;
  return c;
}

const workload::Workload& mix() {
  static const workload::Workload w{
      {models::ModelId::kVgg19, models::ModelId::kResNet50,
       models::ModelId::kInceptionV3, models::ModelId::kMobileNet}};
  return w;
}

#ifdef OMNIBOOST_HAVE_GBENCH

void BM_BaselineDecision(benchmark::State& state) {
  auto sched = sched::AllOnScheduler::gpu_baseline(ctx().zoo());
  for (auto _ : state) benchmark::DoNotOptimize(sched.schedule(mix()));
}
BENCHMARK(BM_BaselineDecision);

void BM_MosaicDecision(benchmark::State& state) {
  static sched::MosaicScheduler sched(ctx().zoo(), ctx().device());
  for (auto _ : state) benchmark::DoNotOptimize(sched.schedule(mix()));
}
BENCHMARK(BM_MosaicDecision)->Unit(benchmark::kMillisecond);

void BM_GaDecision(benchmark::State& state) {
  static sched::GaScheduler sched(ctx().zoo(), ctx().device());
  for (auto _ : state) benchmark::DoNotOptimize(sched.schedule(mix()));
}
BENCHMARK(BM_GaDecision)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_OmniBoostDecision(benchmark::State& state) {
  static core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                        ctx().estimator());
  for (auto _ : state) benchmark::DoNotOptimize(sched.schedule(mix()));
}
BENCHMARK(BM_OmniBoostDecision)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_EstimatorQuery(benchmark::State& state) {
  auto est = ctx().estimator();
  const auto counts = mix().layer_counts(ctx().zoo());
  const auto input = ctx().embedding().masked_input(
      mix(), sim::Mapping::all_on(counts, device::ComponentId::kGpu));
  for (auto _ : state) benchmark::DoNotOptimize(est->predict_reward(input));
}
BENCHMARK(BM_EstimatorQuery)->Unit(benchmark::kMicrosecond);

void BM_EstimatorQueryBatch16(benchmark::State& state) {
  // 16 queries amortized over one batched forward pass; compare the
  // per-iteration time against 16x BM_EstimatorQuery.
  auto est = ctx().estimator();
  const auto counts = mix().layer_counts(ctx().zoo());
  std::vector<tensor::Tensor> inputs(
      16, ctx().embedding().masked_input(
              mix(), sim::Mapping::all_on(counts, device::ComponentId::kGpu)));
  for (auto _ : state) benchmark::DoNotOptimize(est->predict_rewards(inputs));
}
BENCHMARK(BM_EstimatorQueryBatch16)->Unit(benchmark::kMicrosecond);

void BM_BoardMeasurement(benchmark::State& state) {
  // One GA fitness evaluation = one steady-state board simulation.
  const auto nets = mix().resolve(ctx().zoo());
  const auto m = sim::Mapping::all_on(mix().layer_counts(ctx().zoo()),
                                      device::ComponentId::kGpu);
  for (auto _ : state)
    benchmark::DoNotOptimize(ctx().board().simulate(nets, m));
}
BENCHMARK(BM_BoardMeasurement)->Unit(benchmark::kMillisecond);

#endif  // OMNIBOOST_HAVE_GBENCH

}  // namespace

/// Seconds of CPU time the calling thread has used (CLOCK_THREAD_CPUTIME_ID).
/// Unlike wall time it leaves out time spent waiting for a core, so it
/// separates a slower program from a busier host.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall-clock of \p fn over \p repeats runs: the minimum (the work is
/// deterministic, so the minimum is the run least disturbed by background
/// load) plus the run-to-run stddev for callers that want to publish the
/// load-variance signal (the column_stats block in the JSON summarizes
/// across *rows*, not runs), and the minimum per-thread CPU time.
struct TimedRuns {
  double min_s = std::numeric_limits<double>::infinity();
  double stddev_s = 0.0;
  double min_cpu_s = std::numeric_limits<double>::infinity();
};

template <typename Fn>
TimedRuns timed_runs(std::size_t repeats, const Fn& fn) {
  TimedRuns out;
  util::RunningStats rs;
  for (std::size_t i = 0; i < repeats; ++i) {
    const double c0 = thread_cpu_s();
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    out.min_cpu_s = std::min(out.min_cpu_s, thread_cpu_s() - c0);
    rs.add(s);
    out.min_s = std::min(out.min_s, s);
  }
  out.stddev_s = rs.stddev();
  return out;
}

/// A warm search's query stream: masked inputs of one 4-stream mix whose
/// mappings each re-draw about one layer in ten of a base mapping, as a
/// warm-started rollout (prior_bias 0.9) does.
std::vector<tensor::Tensor> warm_queries(util::Rng& rng, std::size_t n) {
  const workload::Workload w = workload::random_mix(rng, 4);
  const sim::Mapping base = workload::random_mapping(rng, ctx().zoo(), w, 3);
  std::vector<tensor::Tensor> out;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<sim::Assignment> per_dnn;
    for (std::size_t d = 0; d < base.num_dnns(); ++d) {
      sim::Assignment a = base.assignment(d);
      for (device::ComponentId& c : a)
        if (rng.below(10) == 0)
          c = static_cast<device::ComponentId>(
              rng.below(device::kNumComponents));
      per_dnn.push_back(std::move(a));
    }
    out.push_back(
        ctx().embedding().masked_input(w, sim::Mapping(std::move(per_dnn))));
  }
  return out;
}

/// The inference plan stage by stage next to the module graph it was
/// compiled from, over a query stream in waves of \p batch. A module stage
/// is the run of top-level layers the plan fuses into that stage (a conv
/// block is Conv2d + BatchNorm2d + GELU). The plan's GELU memo makes its
/// cost depend on how much successive queries share, so its stages are
/// timed in stream order, each call between its own clock reads, less what
/// reading the clocks costs (timed around no work). Times are per wave.
void add_plan_stage_rows(util::Table& t, const core::ThroughputEstimator& est,
                         const std::vector<tensor::Tensor>& queries,
                         std::size_t batch, std::size_t repeats) {
  const std::unique_ptr<nn::Sequential> net = est.network_copy();
  net->set_kernel(nn::KernelKind::kGemm);
  const tensor::Tensor& first = queries.front();
  const auto plan = nn::InferencePlan::compile(
      *net, first.extent(0), first.extent(1), first.extent(2));
  if (!plan) return;

  // Module stages: a new stage starts at every layer that is not a
  // BatchNorm2d, an activation or the Linear after the global pool.
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < net->size(); ++i) {
    const std::string name = net->layer(i).name();
    if (groups.empty() ||
        (name != "BatchNorm2d" && name != "GELU" && name != "ReLU" &&
         name != "Linear"))
      groups.emplace_back();
    groups.back().push_back(i);
  }
  if (groups.size() != plan->num_stages()) return;

  // stage_in[g][w]: the module's input to stage g for wave w.
  const std::size_t waves = queries.size() / batch;
  std::vector<std::vector<tensor::Tensor>> stage_in(groups.size());
  for (std::size_t w = 0; w < waves; ++w) {
    tensor::Tensor x = tensor::stack(std::vector<tensor::Tensor>(
        queries.begin() + w * batch, queries.begin() + (w + 1) * batch));
    for (std::size_t g = 0; g < groups.size(); ++g) {
      stage_in[g].push_back(x);
      for (const std::size_t i : groups[g]) x = net->layer(i).forward(x);
    }
  }

  nn::InferencePlan::Scratch scratch;
  // Per stage, the minimum over repeats of its summed time over the stream.
  const auto plan_stages = [&](bool run) {
    std::vector<TimedRuns> best(groups.size());
    for (std::size_t r = 0; r < repeats; ++r) {
      std::vector<double> wall(groups.size(), 0.0), cpu(groups.size(), 0.0);
      for (std::size_t q = 0; q < waves * batch; ++q) {
        plan->load_input(queries[q].data(), scratch);
        for (std::size_t g = 0; g < groups.size(); ++g) {
          const double c0 = thread_cpu_s();
          const auto t0 = std::chrono::steady_clock::now();
          if (run) plan->run_stage(g, scratch);
          const auto t1 = std::chrono::steady_clock::now();
          cpu[g] += thread_cpu_s() - c0;
          wall[g] += std::chrono::duration<double>(t1 - t0).count();
        }
      }
      for (std::size_t g = 0; g < groups.size(); ++g) {
        best[g].min_s = std::min(best[g].min_s, wall[g]);
        best[g].min_cpu_s = std::min(best[g].min_cpu_s, cpu[g]);
      }
    }
    return best;
  };
  const double us_per_wave = 1e6 / static_cast<double>(waves);
  const auto row = [&](const std::string& label, const TimedRuns& p,
                       const TimedRuns& m) {
    t.add_row({label, std::to_string(batch),
               util::fmt(us_per_wave * p.min_s, 2),
               util::fmt(us_per_wave * p.min_cpu_s, 2),
               util::fmt(us_per_wave * m.min_s, 2),
               util::fmt(us_per_wave * m.min_cpu_s, 2),
               util::fmt(us_per_wave * p.min_s / static_cast<double>(batch), 2),
               util::fmt(m.min_s / p.min_s, 2)});
  };
  const std::vector<TimedRuns> clocks = plan_stages(false);
  const std::vector<TimedRuns> timed = plan_stages(true);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    TimedRuns p;
    p.min_s = timed[g].min_s - clocks[g].min_s;
    p.min_cpu_s = timed[g].min_cpu_s - clocks[g].min_cpu_s;
    const TimedRuns m = timed_runs(repeats, [&] {
      for (std::size_t w = 0; w < waves; ++w) {
        tensor::Tensor y = stage_in[g][w];
        for (const std::size_t i : groups[g]) y = net->layer(i).forward(y);
      }
    });
    row(plan->stage_name(g), p, m);
  }
  std::vector<float> out(3);
  const TimedRuns p = timed_runs(repeats, [&] {
    for (std::size_t q = 0; q < waves * batch; ++q)
      plan->forward(queries[q].data(), out.data(), scratch);
  });
  const TimedRuns m = timed_runs(repeats, [&] {
    for (std::size_t w = 0; w < waves; ++w) net->forward(stage_in[0][w]);
  });
  row("whole query", p, m);
}

/// p-th percentile (nearest rank, p in [0, 1]) of a sample set.
double percentile_ms(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto idx = static_cast<std::size_t>(
      std::llround(p * static_cast<double>(samples.size() - 1)));
  return samples[std::min(idx, samples.size() - 1)];
}

/// One row of the compute-kernel table: a conv stage of the estimator CNN
/// timed under the reference, gemm and simd kernels at the production wave
/// width, with the max pairwise output deviation proving the lowerings
/// agree. Returns {reference ms, gemm ms, simd ms} so the caller can
/// publish an aggregate.
std::array<double, 3> add_kernel_row(util::Table& t, const char* label,
                                     nn::Module& ref, nn::Module& gemm,
                                     nn::Module& simd,
                                     const tensor::Tensor& x,
                                     std::size_t inner_reps,
                                     std::size_t repeats) {
  ref.set_kernel(nn::KernelKind::kReference);
  gemm.set_kernel(nn::KernelKind::kGemm);
  simd.set_kernel(nn::KernelKind::kSimd);
  const tensor::Tensor ya = ref.forward(x);
  const tensor::Tensor yb = gemm.forward(x);
  const tensor::Tensor yc = simd.forward(x);
  double max_delta = 0.0;
  for (std::size_t i = 0; i < ya.size(); ++i) {
    max_delta = std::max(
        max_delta, std::fabs(static_cast<double>(ya[i]) - yb[i]));
    max_delta = std::max(
        max_delta, std::fabs(static_cast<double>(yb[i]) - yc[i]));
  }

  const double scale = 1e3 / static_cast<double>(inner_reps);
  const TimedRuns ref_t = timed_runs(repeats, [&] {
    for (std::size_t i = 0; i < inner_reps; ++i) ref.forward(x);
  });
  const TimedRuns gemm_t = timed_runs(repeats, [&] {
    for (std::size_t i = 0; i < inner_reps; ++i) gemm.forward(x);
  });
  const TimedRuns simd_t = timed_runs(repeats, [&] {
    for (std::size_t i = 0; i < inner_reps; ++i) simd.forward(x);
  });
  const double ref_ms = scale * ref_t.min_s;
  const double gemm_ms = scale * gemm_t.min_s;
  const double simd_ms = scale * simd_t.min_s;
  t.add_row({label, std::to_string(x.extent(0)), util::fmt(ref_ms, 3),
             util::fmt(gemm_ms, 3), util::fmt(simd_ms, 3),
             util::fmt(ref_ms / gemm_ms, 2),
             util::fmt(gemm_ms / simd_ms, 2),
             util::fmt(max_delta * 1e6, 3)});
  return {ref_ms, gemm_ms, simd_ms};
}

/// Decision latency of one OmniBoost evaluate-path variant: the minimum
/// over \p repeats decisions at a fixed rollout budget (min, not mean — the
/// decision is deterministic, so the minimum is the run least disturbed by
/// background load).
void add_variant_row(util::Table& t, const char* label, std::size_t batch,
                     bool cache, std::size_t budget, std::size_t repeats,
                     double* scalar_ms) {
  core::OmniBoostConfig cfg;
  cfg.mcts.budget = budget;
  cfg.mcts.batch_size = batch;
  cfg.mcts.cache = cache;
  core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                 ctx().estimator(), cfg);
  double seconds = std::numeric_limits<double>::infinity();
  core::ScheduleResult r;
  for (std::size_t i = 0; i < repeats; ++i) {
    r = sched.schedule(mix());
    seconds = std::min(seconds, r.decision_seconds);
  }
  const double ms = 1e3 * seconds;
  if (*scalar_ms == 0.0) *scalar_ms = ms;  // first row is the reference
  t.add_row({label, std::to_string(batch), cache ? "on" : "off",
             util::fmt(ms, 1), std::to_string(r.evaluations),
             std::to_string(r.cache_hits), util::fmt(*scalar_ms / ms, 2)});
}

int main(int argc, char** argv) {
  bench::banner("Run-time performance evaluation", "Section V-B", 7);

  // One-off cost accounting (the part google-benchmark cannot show).
  std::printf("training the throughput estimator (one-off, design time)...\n");
  ctx().train_estimator();

  sched::MosaicScheduler mosaic(ctx().zoo(), ctx().device());
  sched::GaScheduler ga(ctx().zoo(), ctx().device());
  core::OmniBoostScheduler omni(ctx().zoo(), ctx().embedding(),
                                ctx().estimator());
  const auto rg = ga.schedule(mix());
  const auto ro = omni.schedule(mix());

  // The "board seconds" column is plain numeric on every row so the table
  // keeps a column_stats summary in its JSON export (bench-JSON guard).
  util::Table t({"scheduler", "decision model", "one-off / per-mix cost",
                 "board seconds", "evaluator queries"});
  t.add_row({"Baseline", "none", "none", "0", "0"});
  t.add_row({"MOSAIC", "linear regression",
             "offline collection: " +
                 std::to_string(mosaic.training_samples()) + " samples, " +
                 util::fmt(mosaic.training_board_seconds() / 60.0, 1) +
                 " board-minutes",
             util::fmt(mosaic.training_board_seconds(), 1), "1 per DNN"});
  t.add_row({"GA", "on-board measurements",
             "per mix: " + util::fmt(rg.board_seconds / 60.0, 1) +
                 " board-minutes (paper: ~5 min)",
             util::fmt(rg.board_seconds, 1), std::to_string(rg.evaluations)});
  t.add_row({"OmniBoost", "CNN estimator",
             "500 estimator queries per mix (paper: ~30 s)", "0",
             std::to_string(ro.evaluations + ro.cache_hits)});
  bench::report("runtime_overhead", t);

  // Evaluate-path ablation: the same 500-rollout decision through the
  // scalar/sequential paper path versus the batched forward
  // (MctsConfig::batch_size) and the evaluation memo
  // (MctsConfig::cache). Equal rollout budget everywhere; the decision
  // differs only where wider waves legitimately explore differently.
  const std::size_t budget = bench::scaled(500, 40);
  const std::size_t repeats = bench::scaled(5, 1);
  std::printf("\nevaluate-path variants (budget %zu, min of %zu decisions):\n",
              budget, repeats);
  util::Table bt({"variant", "batch", "cache", "decision (ms)", "evaluations",
                  "cache hits", "speedup"});
  double scalar_ms = 0.0;
  add_variant_row(bt, "scalar (paper path)", 1, false, budget, repeats,
                  &scalar_ms);
  add_variant_row(bt, "scalar+cache", 1, true, budget, repeats, &scalar_ms);
  add_variant_row(bt, "batched", 16, false, budget, repeats, &scalar_ms);
  add_variant_row(bt, "batched+cache", 16, true, budget, repeats, &scalar_ms);
  bench::report("runtime_overhead_batching", bt);

  // Compute-kernel ablation: every conv stage of the estimator CNN, the
  // full batched CNN forward, and the end-to-end decision, each timed under
  // the bit-frozen reference loops, the im2col+GEMM lowering, and the
  // runtime-dispatched SIMD micro-kernels (nn::KernelKind). "max |delta|"
  // certifies equal results: the largest element-wise output difference
  // across the lowerings, in units of 1e-6.
  {
    const std::size_t m = ctx().embedding().models_dim();
    const std::size_t l = ctx().embedding().layers_dim();
    const std::size_t wave = 16;  // production expansion-wave width
    const std::size_t kernel_reps = bench::scaled(50, 5);
    const std::size_t kernel_repeats = bench::scaled(5, 2);
    std::printf("\ncompute kernels, reference vs gemm vs simd (isa: %s; "
                "batch %zu, min of %zu x %zu forwards):\n",
                tensor::simd_isa(), wave, kernel_repeats, kernel_reps);
    util::Table kt({"stage", "batch", "reference (ms)", "gemm (ms)",
                    "simd (ms)", "ref/gemm", "gemm/simd",
                    "max |delta| (1e-6)"});

    struct Stage {
      const char* label;
      std::size_t in_ch, out_ch, h, w;
    };
    const Stage stages[] = {
        {"conv 3->8 (stem)", 3, 8, m, l},
        {"conv 8->16", 8, 16, m / 2, l / 2},
        {"conv 16->16 (residual)", 16, 16, m / 4, l / 4},
        {"conv 16->24", 16, 24, m / 4, l / 4},
        {"conv 24->24 (residual)", 24, 24, m / 4, l / 4},
    };
    util::Rng rng(7);
    double conv_ref_ms = 0.0, conv_gemm_ms = 0.0, conv_simd_ms = 0.0;
    for (const Stage& s : stages) {
      util::Rng init_a(11), init_b(11), init_c(11);
      nn::Conv2d ref(s.in_ch, s.out_ch, 3, 1, 1);
      nn::Conv2d gemm(s.in_ch, s.out_ch, 3, 1, 1);
      nn::Conv2d simd(s.in_ch, s.out_ch, 3, 1, 1);
      ref.init(init_a);
      gemm.init(init_b);
      simd.init(init_c);
      tensor::Tensor x({wave, s.in_ch, s.h, s.w});
      for (std::size_t i = 0; i < x.size(); ++i)
        x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      const auto [r_ms, g_ms, s_ms] =
          add_kernel_row(kt, s.label, ref, gemm, simd, x, kernel_reps,
                         kernel_repeats);
      conv_ref_ms += r_ms;
      conv_gemm_ms += g_ms;
      conv_simd_ms += s_ms;
    }
    // The headline: all conv-forward work of one batched CNN traversal.
    kt.add_row({"conv forward total (5 stages)", std::to_string(wave),
                util::fmt(conv_ref_ms, 3), util::fmt(conv_gemm_ms, 3),
                util::fmt(conv_simd_ms, 3),
                util::fmt(conv_ref_ms / conv_gemm_ms, 2),
                util::fmt(conv_gemm_ms / conv_simd_ms, 2), "-"});

    // Full CNN forward: one batched reward query per kernel kind.
    {
      auto est = ctx().estimator();
      std::stringstream blob;
      est->save(blob);
      auto make_clone = [&blob](nn::KernelKind kind) {
        std::istringstream is(blob.str());
        auto clone = std::make_unique<core::ThroughputEstimator>(
            core::ThroughputEstimator::load(is));
        clone->set_kernel(kind);
        return clone;
      };
      const auto ref_est = make_clone(nn::KernelKind::kReference);
      const auto gemm_est = make_clone(nn::KernelKind::kGemm);
      const auto simd_est = make_clone(nn::KernelKind::kSimd);
      const auto counts = mix().layer_counts(ctx().zoo());
      const std::vector<tensor::Tensor> inputs(
          wave,
          ctx().embedding().masked_input(
              mix(), sim::Mapping::all_on(counts, device::ComponentId::kGpu)));
      const auto ra = ref_est->predict_rewards(inputs);
      const auto rb = gemm_est->predict_rewards(inputs);
      const auto rc = simd_est->predict_rewards(inputs);
      double max_delta = 0.0;
      for (std::size_t i = 0; i < ra.size(); ++i) {
        max_delta = std::max(max_delta, std::fabs(ra[i] - rb[i]));
        max_delta = std::max(max_delta, std::fabs(rb[i] - rc[i]));
      }
      const double scale = 1e3 / static_cast<double>(kernel_reps);
      const TimedRuns ref_t = timed_runs(kernel_repeats, [&] {
        for (std::size_t i = 0; i < kernel_reps; ++i)
          ref_est->predict_rewards(inputs);
      });
      const TimedRuns gemm_t = timed_runs(kernel_repeats, [&] {
        for (std::size_t i = 0; i < kernel_reps; ++i)
          gemm_est->predict_rewards(inputs);
      });
      const TimedRuns simd_t = timed_runs(kernel_repeats, [&] {
        for (std::size_t i = 0; i < kernel_reps; ++i)
          simd_est->predict_rewards(inputs);
      });
      kt.add_row({"estimator CNN forward", std::to_string(wave),
                  util::fmt(scale * ref_t.min_s, 3),
                  util::fmt(scale * gemm_t.min_s, 3),
                  util::fmt(scale * simd_t.min_s, 3),
                  util::fmt(ref_t.min_s / gemm_t.min_s, 2),
                  util::fmt(gemm_t.min_s / simd_t.min_s, 2),
                  util::fmt(max_delta * 1e6, 3)});
    }

    // End-to-end decision under each kernel (same budget as the batching
    // table; wave-width batches, cache on — the production configuration).
    {
      TimedRuns runs[3];
      double reward[3];
      int i = 0;
      for (const nn::KernelKind kind :
           {nn::KernelKind::kReference, nn::KernelKind::kGemm,
            nn::KernelKind::kSimd}) {
        core::OmniBoostConfig cfg;
        cfg.mcts.budget = budget;
        cfg.mcts.batch_size = 16;
        cfg.kernel = kind;
        core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                       ctx().estimator(), cfg);
        core::ScheduleResult r;
        runs[i] = timed_runs(kernel_repeats,
                             [&] { r = sched.schedule(mix()); });
        reward[i] = r.expected_reward;
        ++i;
      }
      const double reward_delta =
          std::max(std::fabs(reward[0] - reward[1]),
                   std::fabs(reward[1] - reward[2]));
      kt.add_row({"decision (500 rollouts)", "16",
                  util::fmt(1e3 * runs[0].min_s, 1),
                  util::fmt(1e3 * runs[1].min_s, 1),
                  util::fmt(1e3 * runs[2].min_s, 1),
                  util::fmt(runs[0].min_s / runs[1].min_s, 2),
                  util::fmt(runs[1].min_s / runs[2].min_s, 2),
                  util::fmt(reward_delta * 1e6, 3)});
    }
    bench::report("runtime_overhead_kernels", kt);
  }

  // The inference plan (the gemm kernel's query path) stage by stage, next
  // to the module graph, at batch 1 (the production wave width) and 16, in
  // wall and per-thread CPU time, over a warm search's query stream. The
  // last row repeats the whole query over unrelated random mixes, where
  // the plan's GELU memo finds little to reuse. "plan per sample" divides
  // by the batch: the plan runs samples one at a time.
  {
    const std::size_t stage_repeats = bench::scaled(7, 2);
    const std::size_t stream = bench::scaled(256, 32);
    std::printf("\ninference plan vs module graph, stage by stage (min of "
                "%zu passes over %zu queries; us per wave):\n",
                stage_repeats, stream);
    util::Table pt({"stage", "batch", "plan wall (us)", "plan cpu (us)",
                    "module wall (us)", "module cpu (us)",
                    "plan per sample (us)", "module/plan"});
    util::Rng rng(31);
    const std::vector<tensor::Tensor> warm = warm_queries(rng, stream);
    const auto est = ctx().estimator();
    add_plan_stage_rows(pt, *est, warm, 1, stage_repeats);
    add_plan_stage_rows(pt, *est, warm, 16, stage_repeats);
    std::vector<tensor::Tensor> cold;
    for (std::size_t i = 0; i < stream; ++i) {
      const workload::Workload w = workload::random_mix(rng, 4);
      cold.push_back(ctx().embedding().masked_input(
          w, workload::random_mapping(rng, ctx().zoo(), w, 3)));
    }
    util::Table ct({"stage", "batch", "plan wall (us)", "plan cpu (us)",
                    "module wall (us)", "module cpu (us)",
                    "plan per sample (us)", "module/plan"});
    add_plan_stage_rows(ct, *est, cold, 1, stage_repeats);
    const auto& last = ct.data().back();
    pt.add_row({"whole query, unrelated mixes", last[1], last[2], last[3],
                last[4], last[5], last[6], last[7]});
    bench::report("runtime_overhead_plan_stages", pt);
  }

  // Warm-decision latency percentiles: repeated warm reschedules of one mix
  // (identity carried_from, no SLOs) per kernel kind — the steady-state
  // serving decision. p50/p99 over the decision population, not
  // min-of-repeats: tail latency is the serving-relevant number.
  {
    const std::size_t warm_n = bench::scaled(24, 8);
    std::printf("\nwarm-decision latency percentiles (%zu decisions per "
                "kernel, budget %zu):\n",
                warm_n, budget);
    util::Table wt({"kernel", "decisions", "p50 (ms)", "p99 (ms)", "min (ms)",
                    "mean (ms)"});
    for (const nn::KernelKind kind :
         {nn::KernelKind::kReference, nn::KernelKind::kGemm,
          nn::KernelKind::kSimd}) {
      core::OmniBoostConfig cfg;
      cfg.mcts.budget = budget;
      cfg.mcts.batch_size = 16;
      cfg.kernel = kind;
      core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                     ctx().estimator(), cfg);
      const core::ScheduleResult cold = sched.schedule(mix());
      core::ScheduleContext sctx;
      sctx.previous_workload = mix();
      sctx.carried_from = {0, 1, 2, 3};
      sim::Mapping prev = cold.mapping;
      std::vector<double> ms;
      ms.reserve(warm_n);
      double sum = 0.0;
      for (std::size_t i = 0; i < warm_n; ++i) {
        const core::ScheduleResult r = sched.reschedule(mix(), prev, sctx);
        ms.push_back(1e3 * r.decision_seconds);
        sum += ms.back();
        prev = r.mapping;
      }
      wt.add_row({nn::kernel_name(kind), std::to_string(warm_n),
                  util::fmt(percentile_ms(ms, 0.50), 3),
                  util::fmt(percentile_ms(ms, 0.99), 3),
                  util::fmt(*std::min_element(ms.begin(), ms.end()), 3),
                  util::fmt(sum / static_cast<double>(warm_n), 3)});
    }
    bench::report("runtime_overhead_warm_percentiles", wt);
  }

  // SLO-shaped warm decisions: every stream under a generous SLO, so each
  // distinct candidate the search scores is DES-replayed on the board model
  // (des_replays == evaluations). No replay outlives its decision.
  {
    const std::size_t slo_n = bench::scaled(12, 4);
    std::printf("\nSLO-shaped warm decisions (%zu decisions):\n", slo_n);
    core::OmniBoostConfig cfg;
    cfg.mcts.budget = budget;
    cfg.mcts.batch_size = 16;
    cfg.kernel = nn::KernelKind::kSimd;
    core::OmniBoostScheduler sched(ctx().zoo(), ctx().embedding(),
                                   ctx().estimator(), cfg);
    const core::ScheduleResult cold = sched.schedule(mix());
    core::ScheduleContext sctx;
    sctx.previous_workload = mix();
    sctx.carried_from = {0, 1, 2, 3};
    sctx.slo_s = std::vector<double>(mix().size(), 0.5);
    sctx.board = &ctx().board();
    std::size_t des_replays = 0;
    std::vector<double> ms;
    sim::Mapping prev = cold.mapping;
    for (std::size_t i = 0; i < slo_n; ++i) {
      const core::ScheduleResult r = sched.reschedule(mix(), prev, sctx);
      des_replays += r.des_replays;
      ms.push_back(1e3 * r.decision_seconds);
      prev = r.mapping;
    }
    util::Table st({"decisions", "DES replays", "replays/decision",
                    "p50 (ms)", "p99 (ms)"});
    st.add_row({std::to_string(slo_n), std::to_string(des_replays),
                util::fmt(static_cast<double>(des_replays) /
                              static_cast<double>(slo_n),
                          1),
                util::fmt(percentile_ms(ms, 0.50), 2),
                util::fmt(percentile_ms(ms, 0.99), 2)});
    bench::report("runtime_overhead_slo_replay", st);
  }

#ifdef OMNIBOOST_HAVE_GBENCH
  if (bench::smoke()) {
    std::printf("\n[smoke] skipping google-benchmark micro-benchmarks\n");
    return 0;
  }
  std::printf("\nmicro-benchmarks (decision latency on this machine):\n");

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
#else
  (void)argc;
  (void)argv;
  std::printf("\n[info] built without google-benchmark; micro-benchmark "
              "section skipped\n");
#endif
  return 0;
}
