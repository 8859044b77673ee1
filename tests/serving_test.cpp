// core::ServingRuntime and contextual rescheduling:
//  * single-event scenarios reproduce IScheduler::schedule() bit-for-bit for
//    OmniBoost (warm and cold) and every baseline, on 3 seeds
//  * warm_start = false replays plain schedule() on every epoch
//  * churn accounting on a hand-built scenario with a scripted scheduler
//  * warm-started OmniBoost spends rollout_fraction of the cold budget,
//    pins the surviving streams' previous assignments into its candidates,
//    and keeps no evaluation or DES replay from one decision to the next
//  * a report's epoch log copies in bounded time and reads like a vector

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "core/serving.hpp"
#include "nn/loss.hpp"
#include "sched/baseline.hpp"
#include "sched/ga.hpp"
#include "sched/greedy.hpp"
#include "sched/mosaic.hpp"
#include "sim/des.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace {

using namespace omniboost;
using models::ModelId;
using models::ModelZoo;
using workload::Scenario;
using workload::ScenarioEvent;
using workload::ScenarioEventKind;
using workload::Workload;

constexpr auto G = device::ComponentId::kGpu;
constexpr auto B = device::ComponentId::kBigCpu;

const ModelZoo& zoo() {
  static const ModelZoo z;
  return z;
}

const device::DeviceSpec& spec() {
  static const device::DeviceSpec s = device::make_hikey970();
  return s;
}

const sim::DesSimulator& board() {
  static const sim::DesSimulator b(spec());
  return b;
}

const core::EmbeddingTensor& embedding() {
  static const device::CostModel cost(spec());
  static const core::EmbeddingTensor e(zoo(), cost);
  return e;
}

/// A quickly-trained estimator shared by the OmniBoost serving tests (they
/// compare search trajectories and budgets, not estimator accuracy).
std::shared_ptr<const core::ThroughputEstimator> trained_estimator() {
  static const auto est = [] {
    core::DatasetConfig dc;
    dc.samples = 60;
    const core::SampleSet data =
        core::generate_dataset(zoo(), embedding(), board(), dc);
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

core::OmniBoostConfig small_config(std::uint64_t seed) {
  core::OmniBoostConfig cfg;
  cfg.mcts.budget = 48;
  cfg.mcts.seed = seed;
  return cfg;
}

Scenario two_arrivals(ModelId a, ModelId b) {
  return Scenario({ScenarioEvent{0.0, ScenarioEventKind::kArrive, a},
                   ScenarioEvent{0.0, ScenarioEventKind::kArrive, b}});
}

/// Deterministic scripted scheduler: returns the mappings it was given, in
/// order, so tests control churn exactly.
class ScriptedScheduler final : public core::IScheduler {
 public:
  explicit ScriptedScheduler(std::vector<sim::Mapping> script)
      : script_(std::move(script)) {}
  std::string name() const override { return "Scripted"; }
  core::ScheduleResult schedule(const workload::Workload&) override {
    core::ScheduleResult r;
    r.mapping = script_.at(next_++);
    return r;
  }
  std::size_t schedule_calls() const { return next_; }

 private:
  std::vector<sim::Mapping> script_;
  std::size_t next_ = 0;
};

TEST(ServingRuntime, SingleEventScenarioMatchesOneShotScheduleForBaselines) {
  const Scenario s =
      Scenario({ScenarioEvent{0.0, ScenarioEventKind::kArrive,
                              ModelId::kAlexNet},
                ScenarioEvent{1.0, ScenarioEventKind::kArrive,
                              ModelId::kMobileNet}});
  const Workload w2 = s.mix_after(1);

  for (const bool warm : {true, false}) {
    core::ServingConfig sc;
    sc.warm_start = warm;
    const core::ServingRuntime runtime(zoo(), board(), sc);

    const auto check = [&](core::IScheduler& served,
                           core::IScheduler& direct) {
      const core::ServingReport rep = runtime.run(served, s);
      ASSERT_EQ(rep.epochs.size(), 2u);
      // Baselines' reschedule is the default adapter: identical to a fresh
      // schedule() of the epoch's mix.
      EXPECT_EQ(rep.epochs[1].decision.mapping, direct.schedule(w2).mapping)
          << served.name() << " warm=" << warm;
    };

    auto base_a = sched::AllOnScheduler::gpu_baseline(zoo());
    auto base_b = sched::AllOnScheduler::gpu_baseline(zoo());
    check(base_a, base_b);
    sched::MosaicScheduler mosaic_a(zoo(), spec());
    sched::MosaicScheduler mosaic_b(zoo(), spec());
    check(mosaic_a, mosaic_b);
    sched::GreedyScheduler greedy_a(zoo(), spec());
    sched::GreedyScheduler greedy_b(zoo(), spec());
    check(greedy_a, greedy_b);
    sched::GaScheduler ga_a(zoo(), spec());
    sched::GaScheduler ga_b(zoo(), spec());
    check(ga_a, ga_b);
  }
}

TEST(ServingRuntime, SingleEventScenarioMatchesOneShotOmniBoostThreeSeeds) {
  // The acceptance pin: a single-event scenario through the runtime is
  // bit-identical to one IScheduler::schedule() call, warm-start on or off.
  const Scenario s = Scenario(
      {ScenarioEvent{0.0, ScenarioEventKind::kArrive, ModelId::kVgg19}});
  const Workload w = s.mix_after(0);
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const bool warm : {true, false}) {
      core::OmniBoostScheduler served(zoo(), embedding(), trained_estimator(),
                                      small_config(seed));
      core::OmniBoostScheduler direct(zoo(), embedding(), trained_estimator(),
                                      small_config(seed));
      core::ServingConfig sc;
      sc.warm_start = warm;
      const core::ServingRuntime runtime(zoo(), board(), sc);
      const core::ServingReport rep = runtime.run(served, s);
      const core::ScheduleResult one_shot = direct.schedule(w);
      ASSERT_EQ(rep.epochs.size(), 1u);
      // Bit-identical: same mapping AND the exact same expected reward.
      EXPECT_EQ(rep.epochs[0].decision.mapping, one_shot.mapping)
          << "seed " << seed << " warm=" << warm;
      EXPECT_EQ(rep.epochs[0].decision.expected_reward,
                one_shot.expected_reward)
          << "seed " << seed << " warm=" << warm;
      EXPECT_EQ(rep.epochs[0].decision.evaluations +
                    rep.epochs[0].decision.cache_hits,
                one_shot.evaluations + one_shot.cache_hits);
    }
  }
}

TEST(ServingRuntime, ColdModeReplaysPlainScheduleOnEveryEpoch) {
  // Multi-event scenario, warm start disabled: every epoch's decision must
  // equal a fresh one-shot schedule() of that epoch's mix (OmniBoost's
  // schedule is stateless — the search RNG reseeds from config each call).
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 arrive SqueezeNet\n"
      "at 2 arrive MobileNet\n"
      "at 3 depart AlexNet\n");
  core::OmniBoostScheduler served(zoo(), embedding(), trained_estimator(),
                                  small_config(5));
  core::OmniBoostScheduler direct(zoo(), embedding(), trained_estimator(),
                                  small_config(5));
  core::ServingConfig sc;
  sc.warm_start = false;
  const core::ServingRuntime runtime(zoo(), board(), sc);
  const core::ServingReport rep = runtime.run(served, s);
  ASSERT_EQ(rep.epochs.size(), 4u);
  for (std::size_t i = 0; i < rep.epochs.size(); ++i) {
    const core::ScheduleResult one_shot = direct.schedule(s.mix_after(i));
    EXPECT_EQ(rep.epochs[i].decision.mapping, one_shot.mapping) << "epoch " << i;
    EXPECT_EQ(rep.epochs[i].decision.expected_reward,
              one_shot.expected_reward)
        << "epoch " << i;
  }
}

TEST(ServingRuntime, ChurnAccountingOnHandBuiltScenario) {
  // AlexNet (8 layers) arrives, then MobileNet arrives. The scripted
  // scheduler first puts AlexNet all on GPU, then moves 2 of its 8 layers to
  // the big CPU: churn over the surviving stream = 2/8.
  const std::size_t alex_layers =
      zoo().network(ModelId::kAlexNet).num_layers();
  const std::size_t mobile_layers =
      zoo().network(ModelId::kMobileNet).num_layers();
  ASSERT_GE(alex_layers, 4u);

  sim::Assignment alex_first(alex_layers, G);
  sim::Assignment alex_second(alex_layers, G);
  alex_second[alex_layers - 2] = B;
  alex_second[alex_layers - 1] = B;

  const sim::Mapping m1({alex_first});
  const sim::Mapping m2({alex_second, sim::Assignment(mobile_layers, G)});

  ScriptedScheduler scripted({m1, m2});
  const Scenario s = two_arrivals(ModelId::kAlexNet, ModelId::kMobileNet);
  const core::ServingRuntime runtime(zoo(), board());
  const core::ServingReport rep = runtime.run(scripted, s);

  ASSERT_EQ(rep.epochs.size(), 2u);
  EXPECT_EQ(rep.epochs[0].surviving_layers, 0u);
  EXPECT_EQ(rep.epochs[0].churn, 0.0);
  EXPECT_EQ(rep.epochs[1].surviving_layers, alex_layers);
  EXPECT_EQ(rep.epochs[1].moved_layers, 2u);
  EXPECT_DOUBLE_EQ(rep.epochs[1].churn, 2.0 / static_cast<double>(alex_layers));
  EXPECT_DOUBLE_EQ(rep.mean_churn, 2.0 / static_cast<double>(alex_layers));
  EXPECT_GT(rep.epochs[1].measured_throughput, 0.0);
}

TEST(MappingChurn, CountsOnlySurvivingStreams) {
  const sim::Mapping prev({sim::Assignment(4, G), sim::Assignment(6, B)});
  // New workload: stream 0 is new, stream 1 carries prev stream 0 with one
  // layer moved, stream 2 carries prev stream 1 unchanged.
  sim::Assignment moved(4, G);
  moved[0] = B;
  const sim::Mapping next(
      {sim::Assignment(10, G), moved, sim::Assignment(6, B)});
  std::size_t surviving = 0, moved_layers = 0;
  const double churn = core::mapping_churn(prev, {-1, 0, 1}, next, &surviving,
                                           &moved_layers);
  EXPECT_EQ(surviving, 10u);
  EXPECT_EQ(moved_layers, 1u);
  EXPECT_DOUBLE_EQ(churn, 0.1);
}

TEST(ServingRuntime, IdleEpochsAreRecordedAndResetWarmState) {
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 depart AlexNet\n"
      "at 2 arrive MobileNet\n");
  const std::size_t alex_layers =
      zoo().network(ModelId::kAlexNet).num_layers();
  const std::size_t mobile_layers =
      zoo().network(ModelId::kMobileNet).num_layers();
  ScriptedScheduler scripted({sim::Mapping({sim::Assignment(alex_layers, G)}),
                              sim::Mapping({sim::Assignment(mobile_layers, G)})});
  const core::ServingRuntime runtime(zoo(), board());
  const core::ServingReport rep = runtime.run(scripted, s);
  ASSERT_EQ(rep.epochs.size(), 3u);
  EXPECT_EQ(rep.epochs[1].mix_size, 0u);
  EXPECT_EQ(rep.epochs[1].measured_throughput, 0.0);
  EXPECT_EQ(rep.decisions, 2u);
  // Both decisions came through schedule(), not reschedule: the scripted
  // scheduler counts its schedule() calls.
  EXPECT_EQ(scripted.schedule_calls(), 2u);
  EXPECT_EQ(rep.epochs[2].surviving_layers, 0u);
}

TEST(OmniBoostReschedule, WarmDecisionSpendsRolloutFractionOfTheBudget) {
  core::OmniBoostConfig cfg = small_config(11);
  cfg.rollout_fraction = 0.25;
  core::OmniBoostScheduler omni(zoo(), embedding(), trained_estimator(), cfg);

  const Workload w1{{ModelId::kAlexNet, ModelId::kSqueezeNet}};
  const Workload w2{{ModelId::kAlexNet, ModelId::kSqueezeNet,
                     ModelId::kMobileNet}};
  const core::ScheduleResult cold = omni.schedule(w1);
  EXPECT_EQ(cold.evaluations + cold.cache_hits, 48u);

  core::ScheduleContext ctx;
  ctx.previous_workload = w1;
  ctx.carried_from = {0, 1, -1};
  const core::ScheduleResult warm = omni.reschedule(w2, cold.mapping, ctx);
  EXPECT_EQ(warm.evaluations + warm.cache_hits, 12u);  // 0.25 * 48
  EXPECT_EQ(warm.mapping.num_dnns(), 3u);
  EXPECT_TRUE(warm.mapping.within_stage_limit(3));

  // Cold fallback through the same entry point.
  ctx.warm_start = false;
  const core::ScheduleResult forced_cold =
      omni.reschedule(w2, cold.mapping, ctx);
  EXPECT_EQ(forced_cold.evaluations + forced_cold.cache_hits, 48u);
}

TEST(OmniBoostReschedule, PinnedRolloutKeepsSurvivingAssignmentsReachable) {
  // With prior_bias = 1 and a budget of 1, the single (pinned) rollout must
  // reproduce the carried streams' previous assignments exactly.
  core::OmniBoostConfig cfg = small_config(21);
  cfg.rollout_fraction = 1.0 / 48.0;  // budget 48 -> 1 warm rollout
  cfg.prior_bias = 1.0;
  core::OmniBoostScheduler omni(zoo(), embedding(), trained_estimator(), cfg);

  const Workload w1{{ModelId::kVgg16, ModelId::kMobileNet}};
  const core::ScheduleResult cold = omni.schedule(w1);

  // Departure: both surviving streams carry over; no new streams.
  const Workload w2{{ModelId::kVgg16, ModelId::kMobileNet}};
  core::ScheduleContext ctx;
  ctx.previous_workload = w1;
  ctx.carried_from = {0, 1};
  const core::ScheduleResult warm = omni.reschedule(w2, cold.mapping, ctx);
  EXPECT_EQ(warm.evaluations + warm.cache_hits, 1u);
  EXPECT_EQ(warm.mapping, cold.mapping);  // zero churn by construction
}

TEST(OmniBoostReschedule, KeepsNoStateBetweenDecisions) {
  // DETERMINISM D1/D4: a warm decision is a pure function of
  // (config, w, previous, ctx). The only memo is the one inside a single
  // search, so re-deciding the same inputs on the same scheduler repeats the
  // fresh scheduler's decision AND its accounting — no evaluation or DES
  // replay carries over from the earlier call. Checked SLO-free and
  // SLO-shaped.
  core::OmniBoostConfig cfg = small_config(31);
  cfg.rollout_fraction = 0.5;
  const Workload w{{ModelId::kAlexNet, ModelId::kMobileNet}};
  core::ScheduleContext plain;
  plain.previous_workload = w;
  plain.carried_from = {0, 1};
  core::ScheduleContext sloed = plain;
  sloed.slo_s = {0.5, 0.5};
  sloed.board = &board();

  for (const core::ScheduleContext& ctx : {plain, sloed}) {
    SCOPED_TRACE(ctx.board != nullptr ? "SLO-shaped" : "SLO-free");
    core::OmniBoostScheduler reused(zoo(), embedding(), trained_estimator(),
                                    cfg);
    const sim::Mapping previous = reused.schedule(w).mapping;
    const core::ScheduleResult first = reused.reschedule(w, previous, ctx);
    const core::ScheduleResult second = reused.reschedule(w, previous, ctx);
    core::OmniBoostScheduler fresh(zoo(), embedding(), trained_estimator(),
                                   cfg);
    const core::ScheduleResult alone = fresh.reschedule(w, previous, ctx);
    for (const core::ScheduleResult* r : {&second, &alone}) {
      EXPECT_EQ(r->mapping, first.mapping);
      EXPECT_EQ(r->expected_reward, first.expected_reward);
      EXPECT_EQ(r->evaluations, first.evaluations);
      EXPECT_EQ(r->cache_hits, first.cache_hits);
      EXPECT_EQ(r->des_replays, first.des_replays);
      EXPECT_EQ(r->replay_hits, 0u);
    }
    EXPECT_EQ(first.evaluations + first.cache_hits, 24u);  // 0.5 * 48
  }
}

TEST(ServingRuntime, DefaultConfigReplaysManualScheduleRescheduleThreeSeeds) {
  // The PR-4 bit-compat pin: with the churn-cost model off (default) and no
  // SLOs in the scenario, the runtime's serving replay must be bit-identical
  // to a manual schedule()/reschedule() replay whose contexts carry NO board
  // and NO migration model — i.e. the new context fields must not perturb
  // the SLO-free decision path, and the measurement must equal the plain
  // simulate() of each epoch's mapping.
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet\n"
      "at 1 arrive SqueezeNet\n"
      "at 2 arrive MobileNet\n"
      "at 3 depart AlexNet\n");
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    core::OmniBoostScheduler served(zoo(), embedding(), trained_estimator(),
                                    small_config(seed));
    core::OmniBoostScheduler manual(zoo(), embedding(), trained_estimator(),
                                    small_config(seed));
    const core::ServingRuntime runtime(zoo(), board());
    const core::ServingReport rep = runtime.run(served, s);
    ASSERT_EQ(rep.epochs.size(), 4u);

    Workload prev_w;
    sim::Mapping prev_m;
    for (std::size_t i = 0; i < rep.epochs.size(); ++i) {
      const Workload w = s.mix_after(i);
      core::ScheduleResult direct;
      if (i == 0) {
        direct = manual.schedule(w);
      } else {
        core::ScheduleContext ctx;  // PR-4 shape: board/migration left null
        ctx.previous_workload = prev_w;
        for (const ModelId id : w.mix) {
          const auto it =
              std::find(prev_w.mix.begin(), prev_w.mix.end(), id);
          ctx.carried_from.push_back(it == prev_w.mix.end()
                                         ? std::ptrdiff_t{-1}
                                         : it - prev_w.mix.begin());
        }
        direct = manual.reschedule(w, prev_m, ctx);
      }
      EXPECT_EQ(rep.epochs[i].decision.mapping, direct.mapping)
          << "seed " << seed << " epoch " << i;
      EXPECT_EQ(rep.epochs[i].decision.expected_reward,
                direct.expected_reward)
          << "seed " << seed << " epoch " << i;
      EXPECT_EQ(rep.epochs[i].measured_throughput,
                board()
                    .simulate(w.resolve(zoo()), direct.mapping)
                    .avg_throughput)
          << "seed " << seed << " epoch " << i;
      // No SLOs, model off: the new accounting must stay all-zero.
      EXPECT_EQ(rep.epochs[i].slo_streams, 0u);
      EXPECT_EQ(rep.epochs[i].migration_stall_s, 0.0);
      prev_w = w;
      prev_m = direct.mapping;
    }
    EXPECT_EQ(rep.total_slo_violations, 0u);
    EXPECT_EQ(rep.total_migration_stall_s, 0.0);
  }
}

TEST(ServingRuntime, MigrationStallsLandInMeasuredThroughput) {
  // AlexNet arrives, MobileNet arrives; the scripted scheduler moves 2 of
  // AlexNet's layers on the second epoch. With the churn-cost model enabled
  // the epoch is measured with that stream's one-off stall, so measured T
  // drops below the free-churn measurement of the SAME mapping.
  const std::size_t alex_layers =
      zoo().network(ModelId::kAlexNet).num_layers();
  const std::size_t mobile_layers =
      zoo().network(ModelId::kMobileNet).num_layers();
  sim::Assignment alex_first(alex_layers, G);
  sim::Assignment alex_second(alex_layers, G);
  alex_second[alex_layers - 2] = B;
  alex_second[alex_layers - 1] = B;
  const sim::Mapping m1({alex_first});
  const sim::Mapping m2({alex_second, sim::Assignment(mobile_layers, G)});
  const Scenario s = two_arrivals(ModelId::kAlexNet, ModelId::kMobileNet);

  core::ServingConfig charged;
  charged.migration.enabled = true;
  const core::ServingRuntime charged_rt(zoo(), board(), charged);
  ScriptedScheduler scripted_a({m1, m2});
  const core::ServingReport rep = charged_rt.run(scripted_a, s);

  const core::ServingRuntime free_rt(zoo(), board());
  ScriptedScheduler scripted_b({m1, m2});
  const core::ServingReport free_rep = free_rt.run(scripted_b, s);

  ASSERT_EQ(rep.epochs.size(), 2u);
  // First epoch: no previous mapping, never charged.
  EXPECT_EQ(rep.epochs[0].migration_stall_s, 0.0);
  EXPECT_EQ(rep.epochs[0].measured_throughput,
            free_rep.epochs[0].measured_throughput);
  // Second epoch: one migrated segment (the two moved layers are one new
  // big-CPU segment), a positive stall, and measured T that can only drop.
  EXPECT_EQ(rep.epochs[1].migrated_segments, 1u);
  EXPECT_GT(rep.epochs[1].migration_stall_s, 0.0);
  EXPECT_LE(rep.epochs[1].measured_throughput,
            free_rep.epochs[1].measured_throughput);
  EXPECT_EQ(rep.total_migrated_segments, 1u);
  EXPECT_DOUBLE_EQ(rep.total_migration_stall_s,
                   rep.epochs[1].migration_stall_s);
  // Churn accounting itself is unchanged by the price tag.
  EXPECT_EQ(rep.epochs[1].moved_layers, free_rep.epochs[1].moved_layers);

  // A pathological migration price starves the moved stream past the
  // measurement window: the stall unmistakably lands in measured T.
  core::ServingConfig brutal = charged;
  brutal.migration.scale = 1e8;
  const core::ServingRuntime brutal_rt(zoo(), board(), brutal);
  ScriptedScheduler scripted_c({m1, m2});
  const core::ServingReport brutal_rep = brutal_rt.run(scripted_c, s);
  EXPECT_LT(brutal_rep.epochs[1].measured_throughput,
            free_rep.epochs[1].measured_throughput);
  EXPECT_EQ(brutal_rep.epochs[1].measured_throughput, 0.0);
}

TEST(ServingRuntime, MigrationEdgeCasesFullReplacementDepartOnlyAndIdle) {
  const std::size_t alex_layers =
      zoo().network(ModelId::kAlexNet).num_layers();
  const std::size_t mobile_layers =
      zoo().network(ModelId::kMobileNet).num_layers();
  const std::size_t squeeze_layers =
      zoo().network(ModelId::kSqueezeNet).num_layers();

  core::ServingConfig cfg;
  cfg.migration.enabled = true;
  const core::ServingRuntime rt(zoo(), board(), cfg);

  // Full-replacement epoch: AlexNet departs and MobileNet arrives in
  // back-to-back events; the middle epoch still carries AlexNet only, the
  // third epoch's mix shares NO stream with the second -> no charge even
  // though the mapping is completely different.
  {
    const Scenario s = workload::parse_scenario(
        "at 0 arrive AlexNet\n"
        "at 1 depart AlexNet\n"
        "at 1 arrive MobileNet\n");
    ScriptedScheduler scripted(
        {sim::Mapping({sim::Assignment(alex_layers, G)}),
         sim::Mapping({sim::Assignment(mobile_layers, B)})});
    const core::ServingReport rep = rt.run(scripted, s);
    ASSERT_EQ(rep.epochs.size(), 3u);
    EXPECT_EQ(rep.epochs[1].mix_size, 0u);  // idle: the board drained
    EXPECT_EQ(rep.epochs[2].surviving_layers, 0u);
    EXPECT_EQ(rep.epochs[2].migration_stall_s, 0.0);
    EXPECT_EQ(rep.total_migrated_segments, 0u);
  }

  // Depart-only epoch: the survivors' layers move when the third stream
  // leaves -> the stall is charged exactly on the two moved layers.
  {
    const Scenario s = workload::parse_scenario(
        "at 0 arrive AlexNet\n"
        "at 0 arrive SqueezeNet\n"
        "at 1 depart SqueezeNet\n");
    sim::Assignment alex_moved(alex_layers, G);
    alex_moved[0] = B;
    alex_moved[1] = B;
    ScriptedScheduler scripted(
        {sim::Mapping({sim::Assignment(alex_layers, G)}),
         sim::Mapping({sim::Assignment(alex_layers, G),
                       sim::Assignment(squeeze_layers, G)}),
         sim::Mapping({alex_moved})});
    const core::ServingReport rep = rt.run(scripted, s);
    ASSERT_EQ(rep.epochs.size(), 3u);
    EXPECT_EQ(rep.epochs[2].moved_layers, 2u);
    EXPECT_EQ(rep.epochs[2].migrated_segments, 1u);
    EXPECT_GT(rep.epochs[2].migration_stall_s, 0.0);
  }
}

TEST(ServingRuntime, SloBookkeepingAcrossArrivalAndDeparture) {
  // VGG-19 serves under a generous SLO, AlexNet under an impossible one;
  // AlexNet then departs, and a re-arrival WITHOUT an SLO serves
  // unconstrained — the bookkeeping must not leak the old target.
  const std::size_t vgg_layers = zoo().network(ModelId::kVgg19).num_layers();
  const std::size_t alex_layers =
      zoo().network(ModelId::kAlexNet).num_layers();
  const Scenario s = workload::parse_scenario(
      "at 0 arrive VGG-19 slo 1e9\n"
      "at 1 arrive AlexNet slo 1e-6\n"
      "at 2 depart AlexNet\n"
      "at 3 arrive AlexNet\n");
  const sim::Mapping vgg_only({sim::Assignment(vgg_layers, G)});
  const sim::Mapping both(
      {sim::Assignment(vgg_layers, G), sim::Assignment(alex_layers, B)});
  ScriptedScheduler scripted({vgg_only, both, vgg_only, both});
  const core::ServingRuntime rt(zoo(), board());
  const core::ServingReport rep = rt.run(scripted, s);
  ASSERT_EQ(rep.epochs.size(), 4u);

  // Epoch 0: one stream under an (unbreakable) SLO.
  EXPECT_EQ(rep.epochs[0].slo_streams, 1u);
  EXPECT_EQ(rep.epochs[0].slo_violations, 0u);
  ASSERT_EQ(rep.epochs[0].latency_p99_s.size(), 1u);
  EXPECT_GT(rep.epochs[0].latency_p99_s[0], 0.0);
  // Epoch 1: both under SLO; the microsecond target cannot be met.
  EXPECT_EQ(rep.epochs[1].slo_streams, 2u);
  EXPECT_EQ(rep.epochs[1].slo_violations, 1u);
  ASSERT_EQ(rep.epochs[1].slo_s.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.epochs[1].slo_s[1], 1e-9);  // 1e-6 ms in seconds
  // Epoch 2: the violating stream departed with its SLO.
  EXPECT_EQ(rep.epochs[2].slo_streams, 1u);
  EXPECT_EQ(rep.epochs[2].slo_violations, 0u);
  // Epoch 3: AlexNet re-arrived WITHOUT an SLO.
  EXPECT_EQ(rep.epochs[3].slo_streams, 1u);
  ASSERT_EQ(rep.epochs[3].slo_s.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.epochs[3].slo_s[1], 0.0);

  EXPECT_EQ(rep.total_slo_streams, 5u);
  EXPECT_EQ(rep.total_slo_violations, 1u);
}

TEST(ServingRuntime, StallStarvedSloStreamCountsAsViolating) {
  // A migration stall that consumes the whole measurement window leaves the
  // latency distribution intact (a one-off stall is not per-frame latency)
  // but the stream served zero frames — that must count against even an
  // unbreakable SLO.
  const std::size_t alex_layers =
      zoo().network(ModelId::kAlexNet).num_layers();
  const std::size_t mobile_layers =
      zoo().network(ModelId::kMobileNet).num_layers();
  sim::Assignment alex_moved(alex_layers, G);
  alex_moved[0] = B;
  const Scenario s = workload::parse_scenario(
      "at 0 arrive AlexNet slo 1e9\n"
      "at 1 arrive MobileNet\n");
  ScriptedScheduler scripted(
      {sim::Mapping({sim::Assignment(alex_layers, G)}),
       sim::Mapping({alex_moved, sim::Assignment(mobile_layers, G)})});
  core::ServingConfig cfg;
  cfg.migration.enabled = true;
  cfg.migration.scale = 1e8;  // stall >> window: AlexNet serves nothing
  const core::ServingRuntime rt(zoo(), board(), cfg);
  const core::ServingReport rep = rt.run(scripted, s);
  ASSERT_EQ(rep.epochs.size(), 2u);
  EXPECT_EQ(rep.epochs[0].slo_violations, 0u);  // uncharged first epoch
  EXPECT_EQ(rep.epochs[1].slo_violations, 1u);
  EXPECT_EQ(rep.epochs[1].measured_throughput, 0.0);
}

TEST(OmniBoostReschedule, LooseSloLeavesTheDecisionBitIdentical) {
  // An SLO no candidate can break shapes nothing: the SLO-aware decision
  // must be bit-identical to the SLO-free one (same mapping, same reward,
  // same budget split) — the DES replays only confirm feasibility. The
  // SLO-free path runs no replay at all; the SLO-aware one replays every
  // distinct candidate it scores exactly once.
  core::OmniBoostConfig cfg = small_config(17);
  cfg.rollout_fraction = 0.5;
  core::OmniBoostScheduler plain(zoo(), embedding(), trained_estimator(), cfg);
  core::OmniBoostScheduler sloed(zoo(), embedding(), trained_estimator(), cfg);

  const Workload w1{{ModelId::kAlexNet, ModelId::kSqueezeNet}};
  const Workload w2{{ModelId::kAlexNet, ModelId::kSqueezeNet,
                     ModelId::kMobileNet}};
  const core::ScheduleResult cold_a = plain.schedule(w1);
  const core::ScheduleResult cold_b = sloed.schedule(w1);
  ASSERT_EQ(cold_a.mapping, cold_b.mapping);

  core::ScheduleContext ctx;
  ctx.previous_workload = w1;
  ctx.carried_from = {0, 1, -1};
  const core::ScheduleResult no_slo = plain.reschedule(w2, cold_a.mapping, ctx);

  ctx.slo_s = {1e9, 1e9, 1e9};
  ctx.board = &board();
  const core::ScheduleResult with_slo =
      sloed.reschedule(w2, cold_b.mapping, ctx);
  EXPECT_EQ(no_slo.mapping, with_slo.mapping);
  EXPECT_EQ(no_slo.expected_reward, with_slo.expected_reward);
  EXPECT_EQ(no_slo.evaluations + no_slo.cache_hits,
            with_slo.evaluations + with_slo.cache_hits);
  EXPECT_EQ(cold_a.des_replays, 0u);
  EXPECT_EQ(no_slo.des_replays, 0u);
  EXPECT_EQ(with_slo.des_replays, with_slo.evaluations);
  EXPECT_GT(with_slo.des_replays, 0u);
}

TEST(OmniBoostReschedule, ImpossibleSloStillYieldsAValidMapping) {
  // Hard prune with an unmeetable SLO: every candidate's reward clamps to
  // <= 0, but the search must still return a complete, stage-legal mapping.
  core::OmniBoostConfig cfg = small_config(19);
  cfg.rollout_fraction = 0.5;
  cfg.slo_hard_prune = true;
  core::OmniBoostScheduler omni(zoo(), embedding(), trained_estimator(), cfg);

  const Workload w1{{ModelId::kAlexNet, ModelId::kMobileNet}};
  const core::ScheduleResult cold = omni.schedule(w1);

  core::ScheduleContext ctx;
  ctx.previous_workload = w1;
  ctx.carried_from = {0, 1};
  ctx.slo_s = {1e-9, 1e-9};
  ctx.board = &board();
  const core::ScheduleResult warm = omni.reschedule(w1, cold.mapping, ctx);
  EXPECT_EQ(warm.mapping.num_dnns(), 2u);
  EXPECT_TRUE(warm.mapping.within_stage_limit(3));
  EXPECT_EQ(warm.evaluations + warm.cache_hits, 24u);  // 0.5 * 48
}

TEST(OmniBoostReschedule, SloShapingAvoidsAViolatingPreviousMapping) {
  // Give the warm search a previous mapping that VIOLATES a stream's SLO
  // (everything stacked on LITTLE starves the big nets) and an SLO chosen
  // so that better placements exist. With prior_bias high the SLO-free
  // search would stick near the previous mapping; the SLO-aware one must
  // walk away from it: its decision's DES replay meets the SLO while the
  // previous mapping's replay does not.
  const Workload w{{ModelId::kVgg19, ModelId::kAlexNet}};
  const sim::Mapping bad =
      sim::Mapping::all_on(w.layer_counts(zoo()), device::ComponentId::kLittleCpu);
  const auto nets = w.resolve(zoo());
  // Anchor the SLO to an achievable placement (4x the all-GPU p99 — met by
  // roughly a third of random stage-legal mappings), and require that the
  // carried-over mapping genuinely breaks it.
  const sim::Mapping good =
      sim::Mapping::all_on(w.layer_counts(zoo()), device::ComponentId::kGpu);
  const double slo =
      4.0 * board().simulate_traced(nets, good).trace.per_dnn_latency[0].p99;
  const auto bad_replay = board().simulate_traced(nets, bad);
  ASSERT_TRUE(bad_replay.trace.per_dnn_latency[0].samples == 0 ||
              bad_replay.trace.per_dnn_latency[0].p99 > slo);

  core::OmniBoostConfig cfg = small_config(23);
  cfg.rollout_fraction = 1.0;  // full budget: give the search room to move
  cfg.prior_bias = 0.0;        // explore widely instead of hugging the prior
  cfg.slo_hard_prune = true;
  core::OmniBoostScheduler omni(zoo(), embedding(), trained_estimator(), cfg);

  core::ScheduleContext ctx;
  ctx.previous_workload = w;
  ctx.carried_from = {0, 1};
  ctx.slo_s = {slo, 0.0};
  ctx.board = &board();
  const core::ScheduleResult warm = omni.reschedule(w, bad, ctx);

  const auto warm_replay = board().simulate_traced(nets, warm.mapping);
  EXPECT_GT(warm_replay.trace.per_dnn_latency[0].samples, 0u);
  EXPECT_LE(warm_replay.trace.per_dnn_latency[0].p99, slo)
      << "SLO-aware reschedule kept an SLO-breaking mapping";
}

TEST(EpochLog, CopiesShareFrozenBlocksAndKeepTheirOwnLength) {
  // finish() copies the report once per status read, so copying the epoch
  // log must not copy every epoch served: full blocks are shared, and a
  // copy keeps the length it had while the original grows.
  core::EpochLog log;
  const std::size_t n = 3 * core::EpochLog::kBlock + 5;
  for (std::size_t i = 0; i < n; ++i) {
    core::EpochReport ep;
    ep.time_s = static_cast<double>(i);
    log.push_back(std::move(ep));
  }
  const core::EpochLog copy = log;
  ASSERT_EQ(copy.size(), n);
  EXPECT_EQ(&copy[0], &log[0]) << "frozen block was copied";
  EXPECT_EQ(&copy[3 * core::EpochLog::kBlock - 1],
            &log[3 * core::EpochLog::kBlock - 1]);
  EXPECT_NE(&copy.back(), &log.back()) << "open tail must be private";
  std::size_t i = 0;
  for (const core::EpochReport& ep : copy)
    EXPECT_EQ(ep.time_s, static_cast<double>(i++));
  EXPECT_EQ(i, n);

  for (std::size_t j = 0; j < core::EpochLog::kBlock; ++j)
    log.push_back(core::EpochReport{});
  EXPECT_EQ(copy.size(), n);
  EXPECT_EQ(copy.back().time_s, static_cast<double>(n - 1));
  EXPECT_EQ(log.size(), n + core::EpochLog::kBlock);

  core::EpochLog cleared = copy;
  cleared.clear();
  EXPECT_TRUE(cleared.empty());
  EXPECT_EQ(copy.size(), n);
}

}  // namespace
