/// \file bench_serving_slo.cpp
/// Latency-SLO-aware serving under churn costs: the follow-up question to
/// bench_serving_scenarios. There, churn was *reported but free* and
/// throughput was the only objective; here every moved segment charges a
/// one-off migration stall (weight re-upload + warm-up via
/// sim::MigrationCostModel) into the epoch measurement, and arriving streams
/// carry latency SLOs the scheduler is judged against.
///
/// The driver sweeps three operating points of (SLO tightness x migration
/// cost) — from a loose latency target on a cheap-migration board to a tight
/// target on an expensive one — and replays the same scenario through:
///
///  * Baseline / MOSAIC / Greedy — stateless one-shot schedulers behind the
///    default reschedule() adapter (SLO-blind, but Baseline never moves a
///    layer, so it pays zero stall),
///  * OmniBoost-cold — full-budget SLO-blind re-search each event; its
///    from-scratch mappings move many layers, so migration stalls land
///    squarely in its measured T,
///  * OmniBoost-warm — SLO- and churn-aware reschedule(): candidates are
///    DES-replayed and SLO breakers are shaped down (migration stalls enter
///    the replay through the starvation rule), while the warm prior keeps
///    churn — and thus the stalls charged into measured T — low.
///
/// Shapes to look for: OmniBoost-warm with FEWER SLO violations and
/// equal-or-better measured T than OmniBoost-cold at most sweep points
/// (tighter points favour warm harder), with an order less migration stall.
///
/// Tables: one per sweep point (BENCH_serving_slo_<point>.json) plus the
/// warm-vs-cold summary (BENCH_serving_slo.json).

#include "bench_common.hpp"

#include <array>

#include "core/serving.hpp"
#include "sched/greedy.hpp"
#include "workload/scenario.hpp"

using namespace omniboost;

namespace {

struct SweepPoint {
  const char* name;
  /// SLO = tightness x the stream's solo all-on-GPU p99 latency. Values
  /// well above the solo latency because a multi-DNN mix queues: 1.0 would
  /// be unservable under any placement once a second stream lands.
  double tightness;
  /// MigrationCostConfig::scale: 1 = the calibrated link-bandwidth cost.
  double migration_scale;
};

/// Solo all-on-GPU p99 frame latency per model — the per-model latency unit
/// the SLO band is expressed in.
std::array<double, models::kNumModels> solo_latency_s(bench::Context& ctx) {
  std::array<double, models::kNumModels> solo{};
  for (std::size_t m = 0; m < models::kNumModels; ++m) {
    const workload::Workload w{{models::kAllModels[m]}};
    const sim::Mapping gpu = sim::Mapping::all_on(
        w.layer_counts(ctx.zoo()), device::ComponentId::kGpu);
    const auto traced =
        ctx.board().simulate_traced(w.resolve(ctx.zoo()), gpu);
    solo[m] = traced.trace.per_dnn_latency[0].p99;
  }
  return solo;
}

/// The shared base scenario with per-arrival SLOs attached for one point.
workload::Scenario with_slos(
    const workload::Scenario& base, double tightness,
    const std::array<double, models::kNumModels>& solo) {
  std::vector<workload::ScenarioEvent> events = base.events();
  for (workload::ScenarioEvent& e : events) {
    if (e.kind != workload::ScenarioEventKind::kArrive) continue;
    e.slo_ms = tightness * 1e3 * solo[models::model_index(e.model)];
  }
  return workload::Scenario(std::move(events));
}

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
             util::fmt(r.mean_throughput, 3),
             std::to_string(r.total_slo_violations),
             std::to_string(r.total_slo_streams),
             util::fmt(100.0 * r.mean_churn, 1),
             util::fmt(1e3 * r.total_migration_stall_s, 1),
             std::to_string(r.total_migrated_segments),
             util::fmt(r.mean_incremental_decision_seconds, 4)});
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 29;
  bench::banner("serving under latency SLOs and churn costs",
                "beyond the paper: SLO- and migration-aware serving", kSeed);

  bench::Context ctx;
  std::printf("training the throughput estimator...\n\n");
  ctx.train_estimator();

  const std::array<double, models::kNumModels> solo = solo_latency_s(ctx);

  // One medium-churn scenario shared by every sweep point, so differences
  // come from the SLO band and the migration price, never the event script.
  workload::ScenarioConfig scen;
  scen.events = bench::scaled(12, 5);
  scen.min_concurrent = 1;
  scen.max_concurrent = 4;
  scen.depart_bias = 0.45;
  scen.mean_interarrival_s = 3.0;
  util::Rng rng(util::fork_stream(kSeed, 0));
  const workload::Scenario base = workload::random_scenario(rng, scen);
  std::printf("base scenario: %s\n\n", base.describe().c_str());

  const SweepPoint points[] = {
      {"loose", 40.0, 1.0},
      {"medium", 25.0, 2.0},
      {"tight", 15.0, 4.0},
  };

  util::Table summary(
      {"sweep point", "slo tightness", "migration scale", "cold viol",
       "warm viol", "cold T inf/s", "warm T inf/s", "cold stall ms",
       "warm stall ms", "cold churn %", "warm churn %"});

  for (const SweepPoint& point : points) {
    const workload::Scenario scenario =
        with_slos(base, point.tightness, solo);
    std::printf("--- sweep point %s: tightness x%.0f, migration x%.1f ---\n",
                point.name, point.tightness, point.migration_scale);

    core::ServingConfig cold_cfg;
    cold_cfg.warm_start = false;
    cold_cfg.migration.enabled = true;
    cold_cfg.migration.scale = point.migration_scale;
    core::ServingConfig warm_cfg = cold_cfg;
    warm_cfg.warm_start = true;
    const core::ServingRuntime cold_rt(ctx.zoo(), ctx.board(), cold_cfg);
    const core::ServingRuntime warm_rt(ctx.zoo(), ctx.board(), warm_cfg);

    util::Table t({"scheduler", "decisions", "mean T inf/s", "SLO viol",
                   "SLO streams", "mean churn %", "stall ms",
                   "moved segments", "incr decision s"});

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

    bench::report(std::string("serving_slo_") + point.name, t);

    std::printf("warm vs cold: %zu vs %zu SLO violations, T %.3f vs %.3f "
                "inf/s, stall %.0f vs %.0f ms\n\n",
                warm.total_slo_violations, cold.total_slo_violations,
                warm.mean_throughput, cold.mean_throughput,
                1e3 * warm.total_migration_stall_s,
                1e3 * cold.total_migration_stall_s);

    summary.add_row({point.name, util::fmt(point.tightness, 1),
                     util::fmt(point.migration_scale, 1),
                     std::to_string(cold.total_slo_violations),
                     std::to_string(warm.total_slo_violations),
                     util::fmt(cold.mean_throughput, 3),
                     util::fmt(warm.mean_throughput, 3),
                     util::fmt(1e3 * cold.total_migration_stall_s, 1),
                     util::fmt(1e3 * warm.total_migration_stall_s, 1),
                     util::fmt(100.0 * cold.mean_churn, 1),
                     util::fmt(100.0 * warm.mean_churn, 1)});
  }

  std::printf("--- SLO tightness x migration cost summary ---\n");
  bench::report("serving_slo", summary);
  std::printf("\ncheck: OmniBoost-warm should show fewer (or equal) SLO "
              "violations and equal-or-better measured T than "
              "OmniBoost-cold at >= 2 of the 3 sweep points, at an order "
              "less migration stall\n");
  return 0;
}
