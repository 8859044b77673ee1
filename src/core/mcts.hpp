#pragma once
/// \file mcts.hpp
/// Monte Carlo Tree Search over layer-to-component assignments (paper
/// §IV-C). States are partial mappings laid out layer-after-layer,
/// DNN-after-DNN; the three actions pick the computing component of the next
/// layer. Assignments that would exceed the pipeline-stage limit are losing
/// states and are never expanded; complete mappings are winning states scored
/// by an external evaluator (the throughput estimator in production, or an
/// oracle/linear probe in the ablations).

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/mapping.hpp"

namespace omniboost::core {

/// Scores a complete mapping; higher is better.
using MappingEvaluator = std::function<double(const sim::Mapping&)>;

/// Scores a batch of complete mappings in one call; element i is the reward
/// of mappings[i]. Batch evaluation lets the throughput estimator amortize
/// one CNN forward pass over a whole expansion wave
/// (ThroughputEstimator::predict_rewards); scalar evaluators are adapted
/// automatically. Evaluators must be deterministic: the search memoizes
/// rewards by mapping (MctsConfig::cache) and replays them on repeat visits.
using BatchMappingEvaluator =
    std::function<std::vector<double>(const std::vector<sim::Mapping>&)>;

/// How the final decision is read out of the search tree.
enum class MctsExtraction {
  /// The single rollout with the highest evaluator reward. Fast but exposed
  /// to the evaluator's winner's curse.
  kGlobalArgmax,
  /// Descend from the root by highest child average (expected reward), then
  /// take the best rollout through the reached state.
  kEliteDescent,
  /// The paper's "candidate state with the highest expected reward": the
  /// best-average node among sufficiently-visited nodes; decision = best
  /// rollout through it.
  kEliteNode,
};

/// Search controls (paper defaults: budget 500, depth 100).
struct MctsConfig {
  std::size_t budget = 500;      ///< number of simulations (rollouts)
  std::size_t max_depth = 100;   ///< tree-expansion depth limit
  /// UCT constant over in-search min-max-normalized rewards. 1/sqrt(2) is
  /// calibrated on validation mixes (ablation A6 sweeps the sensitivity;
  /// quality is flat within roughly a 4x band around this value).
  double exploration = 0.7071067811865476;
  std::size_t stage_limit = 3;   ///< x = number of computing components
  MctsExtraction extraction = MctsExtraction::kGlobalArgmax;
  std::uint64_t seed = 1;
  /// Leaf evaluations collected per expansion wave before the batch
  /// evaluator runs. 1 reproduces the paper's strictly sequential
  /// select-evaluate-backpropagate loop bit-for-bit; larger waves trade a
  /// slightly staler tree policy (queued leaves carry a virtual visit until
  /// their reward lands) for batched evaluator calls — see
  /// bench_runtime_overhead's batched-vs-scalar columns.
  std::size_t batch_size = 1;
  /// Memoize rewards by canonical mapping hash (sim::Mapping::hash), so a
  /// rollout that reaches an already-scored mapping never re-runs the
  /// evaluator. Replayed rewards are the exact doubles the evaluator
  /// returned, so the search trajectory is bit-identical with the cache on
  /// or off — only the evaluations/cache_hits accounting differs.
  bool cache = true;
  /// Optional per-decision component restriction in the search's flattened
  /// (dnn-after-dnn, layer-after-layer) order: bit c of entry d allows
  /// component c for decision d (sched::ReducedSpace::action_mask produces
  /// one). Null (the default) means unrestricted — that path is
  /// bit-identical to the pre-mask search, as is an all-ones mask. The mask
  /// is advisory: if it would leave a decision with no stage-feasible action
  /// it is ignored for that decision, so the search can always complete.
  /// Held by shared_ptr so config copies stay cheap and — the reason it is
  /// not a plain vector — so the defaulted config temporary at every
  /// `OmniBoostScheduler(...)` call site keeps a trivially-destroyed-enough
  /// shape for GCC 12, whose inliner raises a -Wmaybe-uninitialized false
  /// positive on vector members of defaulted by-value aggregates under
  /// -Werror CI builds.
  std::shared_ptr<const std::vector<std::uint8_t>> action_mask;
};

/// The evaluation memo's container type (mapping -> evaluator reward). Each
/// Mcts::search call owns a fresh one (the transposition cache behind
/// MctsConfig::cache); no memo outlives its search, so no reward is ever
/// carried from one decision to the next.
using EvaluationMemo =
    std::unordered_map<sim::Mapping, double, sim::MappingHasher>;

/// Warm-start inputs for an incremental search. Default-constructed
/// (empty prior) means a cold search — the bit-frozen paper path.
struct MctsWarmStart {
  /// Suggested component per decision in the search's flattened
  /// (dnn-after-dnn, layer-after-layer) order; -1 = no suggestion (layers of
  /// a newly arrived stream). When non-empty it must cover every decision.
  /// The very first rollout is *pinned*: it follows every valid suggestion
  /// exactly, so the candidate set always contains "previous assignments for
  /// surviving streams + a completion for the new ones" — the stability
  /// floor a warm decision can never fall below.
  std::vector<std::int8_t> prior;
  /// Probability that a random-rollout decision follows a valid suggestion
  /// instead of drawing uniformly. Concentrates the shrunken incremental
  /// budget near the previous mapping (low churn) while still exploring.
  double prior_bias = 0.75;
};

/// Search outcome.
struct MctsResult {
  sim::Mapping best_mapping;
  double best_reward = 0.0;
  std::size_t iterations = 0;
  /// Evaluator queries actually executed (memo misses). With the evaluation
  /// cache disabled this equals iterations; with it enabled,
  /// evaluations + cache_hits == iterations.
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;    ///< rollouts served from the evaluation memo
  std::size_t tree_nodes = 0;
};

/// Builds an independent evaluator instance for one search worker.
/// Root-parallel search cannot share one evaluator across threads: the CNN
/// estimator's forward pass mutates per-layer activation caches. Each call
/// must return an evaluator whose mutable state is private (e.g. a cloned
/// estimator; see OmniBoostConfig::workers).
using EvaluatorFactory = std::function<MappingEvaluator()>;

/// Batch-evaluator variant of EvaluatorFactory; same private-state rule.
using BatchEvaluatorFactory = std::function<BatchMappingEvaluator()>;

/// Root-parallelized UCT: \p workers independent trees with forked seeds and
/// the budget split between them, merged by best reward. With workers == 1
/// this is exactly Mcts::search() (same seed, same result). Decision quality
/// is comparable at equal total budget; wall-clock drops by ~the worker
/// count — the knob for shrinking the paper's ~30 s decision latency.
/// Each worker keeps a private evaluation memo (caches are not shared across
/// trees: sharing would reintroduce the cross-thread estimator state the
/// clone rule exists to avoid).
MctsResult parallel_mcts_search(const std::vector<std::size_t>& layer_counts,
                                const EvaluatorFactory& make_evaluator,
                                MctsConfig config, std::size_t workers);

/// Batched-evaluator form of parallel_mcts_search: every worker routes its
/// expansion waves (MctsConfig::batch_size) through its private batch
/// evaluator. The scalar overload above is this function with each scalar
/// evaluator adapted to a batch-of-1 loop.
MctsResult parallel_mcts_search_batched(
    const std::vector<std::size_t>& layer_counts,
    const BatchEvaluatorFactory& make_evaluator, MctsConfig config,
    std::size_t workers);

/// The scheduling environment + UCT search.
class Mcts {
 public:
  /// \param layer_counts  layers per DNN of the workload
  /// \param evaluate      reward for complete mappings
  Mcts(std::vector<std::size_t> layer_counts, MappingEvaluator evaluate,
       MctsConfig config = {});

  /// Batch-evaluator constructor: leaf rewards are requested in waves of up
  /// to MctsConfig::batch_size mappings per evaluator call.
  Mcts(std::vector<std::size_t> layer_counts, BatchMappingEvaluator evaluate,
       MctsConfig config = {});

  /// Installs warm-start inputs for the next search() call. A
  /// default-constructed MctsWarmStart restores the cold behaviour; any
  /// non-empty prior must have exactly one entry per decision.
  void set_warm_start(MctsWarmStart warm);

  /// Runs the search to the configured budget.
  MctsResult search();

 private:
  struct Node;

  /// Decision -> (dnn, layer) coordinates.
  struct Coord {
    std::size_t dnn, layer;
  };

  /// Components allowed for decision \p depth given the path so far.
  void valid_actions(const std::vector<device::ComponentId>& path,
                     std::size_t depth, bool (&out)[device::kNumComponents]) const;

  sim::Mapping to_mapping(const std::vector<device::ComponentId>& path) const;

  std::vector<std::size_t> layer_counts_;
  std::vector<Coord> coords_;
  BatchMappingEvaluator evaluate_;  ///< scalar evaluators arrive pre-adapted
  MctsConfig config_;
  MctsWarmStart warm_;  ///< default (cold) unless set_warm_start was called
};

}  // namespace omniboost::core
