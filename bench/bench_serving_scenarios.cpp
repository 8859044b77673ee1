/// \file bench_serving_scenarios.cpp
/// Dynamic serving scenarios: models arrive and depart at runtime and every
/// event forces a rescheduling decision. This driver replays seeded
/// arrival/departure scenarios at three churn levels through the
/// core::ServingRuntime and compares:
///
///  * OmniBoost-cold — every event re-runs the full-budget MCTS from
///    scratch (the naive extension of the paper's one-shot scheduler), vs.
///  * OmniBoost-warm — contextual reschedule(): surviving streams' previous
///    assignments seed the search, the evaluation memo carries over, and the
///    budget shrinks to OmniBoostConfig::rollout_fraction, vs.
///  * the stateless baselines (all-on-GPU, MOSAIC, greedy), whose
///    reschedule() is the default schedule() adapter.
///
/// Shapes to look for: warm incremental decisions >= 1.5x faster than cold
/// (measured ~2-3x at rollout_fraction 0.4) at equal-or-better mean
/// per-epoch throughput in aggregate (clearly better at medium/high churn,
/// within estimator noise at low churn), with LOWER mapping churn (the
/// prior pins surviving streams, so fewer layers move per event). The
/// GA is excluded: its measurement-driven fitness would burn minutes of
/// board time per event, which is exactly why it cannot serve dynamic
/// traffic (bench_fig5 covers its one-shot quality).
///
/// Tables: one per churn level plus the cold-vs-warm summary
/// (BENCH_serving_scenarios.json).

#include "bench_common.hpp"

#include "core/serving.hpp"
#include "sched/greedy.hpp"
#include "workload/scenario.hpp"

using namespace omniboost;

namespace {

struct ChurnLevel {
  const char* name;
  workload::ScenarioConfig config;
};

struct WarmColdStats {
  double incremental_s = 0.0;
  double mean_throughput = 0.0;
  double mean_churn = 0.0;
};

core::OmniBoostConfig omni_config(std::uint64_t seed) {
  core::OmniBoostConfig cfg;
  cfg.mcts.budget = bench::scaled(500, 48);
  cfg.mcts.seed = seed;
  cfg.mcts.batch_size = 8;  // batched evaluate path (decision-identical)
  return cfg;
}

void add_row(util::Table& t, const std::string& name,
             const core::ServingReport& r) {
  t.add_row({name, std::to_string(r.decisions),
             util::fmt(r.mean_throughput, 3), util::fmt(100.0 * r.mean_churn, 1),
             util::fmt(r.mean_incremental_decision_seconds, 4),
             util::fmt(r.total_decision_seconds, 3),
             std::to_string(r.total_evaluations),
             std::to_string(r.total_cache_hits)});
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 23;
  bench::banner("serving scenarios — warm-started rescheduling under churn",
                "beyond the paper: dynamic multi-DNN serving", kSeed);

  bench::Context ctx;
  std::printf("training the throughput estimator...\n\n");
  ctx.train_estimator();

  const std::size_t events = bench::scaled(14, 5);
  ChurnLevel levels[] = {
      {"low", {events, 1, 3, 0.25, 5.0}},
      {"medium", {events, 1, 4, 0.45, 3.0}},
      {"high", {events, 1, 5, 0.60, 1.5}},
  };

  util::Table summary({"churn level", "events", "cold incr s", "warm incr s",
                       "speedup", "cold T inf/s", "warm T inf/s",
                       "cold churn %", "warm churn %", "warm memo hits"});

  std::size_t level_index = 0;
  for (const ChurnLevel& level : levels) {
    util::Rng rng(util::fork_stream(kSeed, level_index++));
    const workload::Scenario scenario =
        workload::random_scenario(rng, level.config);
    std::printf("--- churn level %s: %s ---\n", level.name,
                scenario.describe().c_str());

    core::ServingConfig cold_cfg;
    cold_cfg.warm_start = false;
    core::ServingConfig warm_cfg;
    warm_cfg.warm_start = true;
    const core::ServingRuntime cold_rt(ctx.zoo(), ctx.board(), cold_cfg);
    const core::ServingRuntime warm_rt(ctx.zoo(), ctx.board(), warm_cfg);

    util::Table t({"scheduler", "decisions", "mean T inf/s", "mean churn %",
                   "incr decision s", "total decision s", "evals",
                   "memo hits"});

    auto baseline = sched::AllOnScheduler::gpu_baseline(ctx.zoo());
    add_row(t, "Baseline", cold_rt.run(baseline, scenario));
    sched::MosaicScheduler mosaic(ctx.zoo(), ctx.device());
    add_row(t, "MOSAIC", cold_rt.run(mosaic, scenario));
    sched::GreedyScheduler greedy(ctx.zoo(), ctx.device());
    add_row(t, "Greedy", cold_rt.run(greedy, scenario));

    core::OmniBoostScheduler omni_cold(ctx.zoo(), ctx.embedding(),
                                       ctx.estimator(), omni_config(kSeed));
    const core::ServingReport cold = cold_rt.run(omni_cold, scenario);
    add_row(t, "OmniBoost-cold", cold);

    core::OmniBoostScheduler omni_warm(ctx.zoo(), ctx.embedding(),
                                       ctx.estimator(), omni_config(kSeed));
    const core::ServingReport warm = warm_rt.run(omni_warm, scenario);
    add_row(t, "OmniBoost-warm", warm);

    bench::report(std::string("serving_scenarios_") + level.name, t);

    const double speedup =
        warm.mean_incremental_decision_seconds > 0.0
            ? cold.mean_incremental_decision_seconds /
                  warm.mean_incremental_decision_seconds
            : 0.0;
    std::printf("warm vs cold: x%.2f faster incremental decisions, "
                "T %.3f vs %.3f inf/s, churn %.1f%% vs %.1f%%\n\n",
                speedup, warm.mean_throughput, cold.mean_throughput,
                100.0 * warm.mean_churn, 100.0 * cold.mean_churn);

    summary.add_row({level.name, std::to_string(scenario.size()),
                     util::fmt(cold.mean_incremental_decision_seconds, 4),
                     util::fmt(warm.mean_incremental_decision_seconds, 4),
                     util::fmt(speedup, 2), util::fmt(cold.mean_throughput, 3),
                     util::fmt(warm.mean_throughput, 3),
                     util::fmt(100.0 * cold.mean_churn, 1),
                     util::fmt(100.0 * warm.mean_churn, 1),
                     std::to_string(warm.total_cache_hits)});
  }

  std::printf("--- cold vs warm summary ---\n");
  bench::report("serving_scenarios", summary);
  std::printf("\ncheck: speedup >= 1.5 at every churn level; warm T >= cold "
              "T in aggregate (within estimator noise per level) at lower "
              "warm churn\n");
  return 0;
}
