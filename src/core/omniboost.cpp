#include "core/omniboost.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "sim/des.hpp"
#include "sim/migration.hpp"
#include "util/clock.hpp"
#include "util/require.hpp"

namespace omniboost::core {

OmniBoostScheduler::OmniBoostScheduler(
    const models::ModelZoo& zoo, const EmbeddingTensor& embedding,
    std::shared_ptr<const ThroughputEstimator> estimator,
    const OmniBoostConfig& config)
    : zoo_(&zoo),
      embedding_(&embedding),
      estimator_(std::move(estimator)),
      config_(config) {
  OB_REQUIRE(estimator_ != nullptr, "OmniBoostScheduler: null estimator");
  OB_REQUIRE(estimator_->trained(),
             "OmniBoostScheduler: estimator must be trained first");
}

std::shared_ptr<const ThroughputEstimator>
OmniBoostScheduler::active_estimator() const {
  // Kernel selection: the shared estimator is immutable, so a non-matching
  // kernel request is served by a private clone (serialization round-trip —
  // bit-exact weights and preprocessing, ~20k parameters, microseconds).
  if (estimator_->kernel() == config_.kernel) return estimator_;
  std::stringstream weights;
  estimator_->save(weights);
  std::istringstream is(weights.str());
  auto clone =
      std::make_shared<ThroughputEstimator>(ThroughputEstimator::load(is));
  clone->set_kernel(config_.kernel);
  return clone;
}

BatchMappingEvaluator OmniBoostScheduler::batch_evaluator(
    const workload::Workload& w,
    std::shared_ptr<const ThroughputEstimator> est) const {
  return [this, &w, est = std::move(est)](
             const std::vector<sim::Mapping>& mappings) {
    std::vector<tensor::Tensor> inputs;
    inputs.reserve(mappings.size());
    for (const sim::Mapping& m : mappings)
      inputs.push_back(embedding_->masked_input(w, m));
    return est->predict_rewards(inputs);
  };
}

ScheduleResult OmniBoostScheduler::schedule(const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "OmniBoostScheduler::schedule: empty workload");
  const util::PacedClock timer;
  const MctsConfig& mcts = config_.mcts;
  const std::shared_ptr<const ThroughputEstimator> active = active_estimator();

  // Root-parallel workers share `active`: predict* is const and reentrant.
  const BatchEvaluatorFactory factory = [this, &w, &active] {
    return batch_evaluator(w, active);
  };
  const MctsResult r =
      parallel_mcts_search_batched(w.layer_counts(*zoo_), factory, mcts,
                                   std::max<std::size_t>(1, config_.workers));

  ScheduleResult out;
  out.mapping = r.best_mapping;
  out.expected_reward = r.best_reward;
  out.evaluations = r.evaluations;
  out.cache_hits = r.cache_hits;
  out.decision_seconds = timer.now_s();
  return out;
}

ScheduleResult OmniBoostScheduler::reschedule(const workload::Workload& w,
                                              const sim::Mapping& previous,
                                              const ScheduleContext& ctx) {
  if (!ctx.warm_start) return schedule(w);
  OB_REQUIRE(w.size() > 0, "OmniBoostScheduler::reschedule: empty workload");
  OB_REQUIRE(ctx.carried_from.size() == w.size(),
             "OmniBoostScheduler::reschedule: carried_from arity mismatch");
  OB_REQUIRE(config_.rollout_fraction > 0.0 && config_.rollout_fraction <= 1.0,
             "OmniBoostScheduler: rollout_fraction must be in (0, 1]");
  const util::PacedClock timer;

  // Incremental budget: a fraction of the cold budget, never below 1.
  MctsConfig mcts = config_.mcts;
  mcts.budget = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(config_.rollout_fraction *
                          static_cast<double>(mcts.budget))));

  // Prior: flatten the surviving streams' previous assignments into the
  // search's decision order (dnn-after-dnn, layer-after-layer); layers of
  // newly arrived streams carry no suggestion.
  const std::vector<std::size_t> counts = w.layer_counts(*zoo_);
  MctsWarmStart warm;
  warm.prior_bias = config_.prior_bias;
  for (std::size_t d = 0; d < w.size(); ++d) {
    const std::ptrdiff_t from = ctx.carried_from[d];
    if (from < 0) {
      warm.prior.insert(warm.prior.end(), counts[d], std::int8_t{-1});
      continue;
    }
    OB_REQUIRE(static_cast<std::size_t>(from) < previous.num_dnns(),
               "OmniBoostScheduler::reschedule: carried_from out of range");
    const sim::Assignment& a =
        previous.assignment(static_cast<std::size_t>(from));
    OB_REQUIRE(a.size() == counts[d],
               "OmniBoostScheduler::reschedule: carried stream layer-count "
               "mismatch (carried_from must pair identical models)");
    for (const device::ComponentId c : a)
      warm.prior.push_back(static_cast<std::int8_t>(c));
  }

  // SLO awareness: active only when the context names at least one SLO AND
  // brings the board model to replay candidates on. Without both, the
  // evaluator below is exactly the pre-SLO one — same closures, same rng
  // consumption — so SLO-free serving stays bit-identical.
  OB_REQUIRE(ctx.slo_s.empty() || ctx.slo_s.size() == w.size(),
             "OmniBoostScheduler::reschedule: slo_s arity mismatch");
  const bool slo_aware =
      ctx.board != nullptr &&
      std::any_of(ctx.slo_s.begin(), ctx.slo_s.end(),
                  [](double s) { return s > 0.0; });

  // Candidate nets for the SLO replays, resolved ONCE per decision at
  // function scope. The resolution depends only on the workload; rebuilding
  // it inside the replay closure would redo the zoo lookups for every
  // expansion wave of the search.
  sim::NetworkList slo_nets;

  // Executed DES replays, counted by the wrapper closure below (captured by
  // reference like slo_nets: the search finishes inside this function).
  std::size_t des_replays = 0;

  BatchMappingEvaluator evaluator = batch_evaluator(w, active_estimator());
  if (slo_aware) {
    OB_REQUIRE(config_.slo_shape > 0.0 && config_.slo_shape <= 1.0,
               "OmniBoostScheduler: slo_shape must be in (0, 1]");
    slo_nets = w.resolve(*zoo_);

    // Wrap the estimator evaluator: DES-replay each candidate and shape
    // down / hard-prune SLO breakers. A stream that serves no frame inside
    // the window counts as violating: "no sample" or "zero rate" means
    // starved, not fast. Migration stalls enter the replay through the
    // zero-rate rule only — a one-off stall cannot change per-frame latency
    // (the stream is simply absent for the first window slice, see the DES
    // start-delay contract), so a candidate whose own churn would starve an
    // SLO stream for the whole window is rejected here, while cheaper
    // stalls are priced by the runtime's measured T, not the SLO check.
    evaluator = [base = std::move(evaluator), board = ctx.board,
                 migration = ctx.migration, &nets = slo_nets,
                 slo = ctx.slo_s, previous, carried = ctx.carried_from,
                 shape = config_.slo_shape, hard = config_.slo_hard_prune,
                 &replays = des_replays](
                    const std::vector<sim::Mapping>& mappings) {
      std::vector<double> rewards = base(mappings);
      for (std::size_t i = 0; i < mappings.size(); ++i) {
        std::vector<double> delays;
        if (migration != nullptr && migration->enabled())
          delays = migration->assess(nets, previous, carried, mappings[i])
                       .stream_delay_s;
        ++replays;
        const sim::DesSimulator::TracedResult replay =
            board->simulate_traced(nets, mappings[i], delays);
        std::size_t violations = 0;
        for (std::size_t d = 0; d < slo.size(); ++d) {
          // sim::breaks_slo is the SAME predicate the serving runtime
          // counts violations with — the search must never optimize a
          // different definition of "violating" than the one it is
          // measured against.
          if (sim::breaks_slo(replay.report, replay.trace, d, slo[d]))
            ++violations;
        }
        if (violations == 0) continue;
        if (hard) {
          // Demote below every SLO-clean candidate regardless of the
          // estimator's reward sign; more violations sink deeper, which
          // keeps the ranking meaningful when every candidate violates.
          // The unit is sized to dominate the estimator's flow-scale
          // rewards (O(1e2) at most) WITHOUT exploding the search's
          // min-max-normalized reward range — a huge offset would collapse
          // all clean candidates' exploit terms to one point and degrade
          // the tree policy to exploration-only.
          rewards[i] =
              std::min(rewards[i], 0.0) - 1e4 * static_cast<double>(violations);
        } else {
          // Symmetric shaping so the demotion works in both reward-sign
          // regimes: shrink positive rewards toward zero, push negative
          // ones further down (dividing by shape < 1 grows the magnitude).
          const double factor = std::pow(shape, static_cast<double>(violations));
          rewards[i] = rewards[i] > 0.0 ? rewards[i] * factor
                                        : rewards[i] / factor;
        }
      }
      return rewards;
    };
  }

  // Single tree on purpose: the incremental budget is already small.
  Mcts search(counts, std::move(evaluator), mcts);
  search.set_warm_start(std::move(warm));
  const MctsResult r = search.search();

  ScheduleResult out;
  out.mapping = r.best_mapping;
  out.expected_reward = r.best_reward;
  out.evaluations = r.evaluations;
  out.cache_hits = r.cache_hits;
  out.des_replays = des_replays;
  out.decision_seconds = timer.now_s();
  return out;
}

MctsScheduler::MctsScheduler(std::string name, const models::ModelZoo& zoo,
                             MappingEvaluator evaluator, MctsConfig config)
    : name_(std::move(name)),
      zoo_(&zoo),
      evaluator_(std::move(evaluator)),
      config_(config) {
  OB_REQUIRE(evaluator_ != nullptr, "MctsScheduler: null evaluator");
}

ScheduleResult MctsScheduler::schedule(const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "MctsScheduler::schedule: empty workload");
  const util::PacedClock timer;
  Mcts search(w.layer_counts(*zoo_), evaluator_, config_);
  const MctsResult r = search.search();

  ScheduleResult out;
  out.mapping = r.best_mapping;
  out.expected_reward = r.best_reward;
  out.evaluations = r.evaluations;
  out.cache_hits = r.cache_hits;
  out.decision_seconds = timer.now_s();
  return out;
}

}  // namespace omniboost::core
