#pragma once
/// \file omniboost.hpp
/// The OmniBoost scheduler: MCTS exploration guided by the trained
/// throughput estimator (paper Fig. 2, steps 4-8). This is the framework's
/// primary public entry point; see examples/quickstart.cpp.

#include <memory>

#include "core/embedding.hpp"
#include "core/estimator.hpp"
#include "core/mcts.hpp"
#include "core/scheduler.hpp"
#include "sim/des.hpp"

namespace omniboost::core {

/// OmniBoost run-time controls.
struct OmniBoostConfig {
  /// Search controls (paper defaults: budget 500, depth 100, limit 3),
  /// including the expansion-wave width (mcts.batch_size) and the per-search
  /// evaluation memo (mcts.cache).
  MctsConfig mcts;
  /// Root-parallel search workers. 1 reproduces the paper's sequential
  /// search; N > 1 splits the budget over N independent trees, each with a
  /// private clone of the estimator (the CNN forward pass is stateful), and
  /// cuts the decision latency by ~N at comparable quality.
  std::size_t workers = 1;
  /// Compute kernel for the estimator's CNN layers (nn/kernel.hpp).
  /// schedule() runs the search against an estimator with this kernel kind,
  /// cloning the shared instance on mismatch (the shared estimator is never
  /// mutated). kReference together with {mcts.batch_size = 1, workers = 1}
  /// reproduces the paper's sequential search bit-for-bit; kGemm is faster
  /// and deterministic, matching within float rounding (<= 1e-6).
  nn::KernelKind kernel = nn::default_kernel();
  /// Budget multiplier for warm-started incremental decisions
  /// (reschedule()): an incremental search spends
  /// max(1, round(rollout_fraction * mcts.budget)) rollouts. The surviving
  /// streams' previous assignments seed the search (MctsWarmStart), so a
  /// fraction of the cold budget suffices — bench_serving_scenarios sweeps
  /// the latency/throughput tradeoff. schedule() never reads this.
  double rollout_fraction = 0.4;
  /// Rollout bias toward the warm-start prior (MctsWarmStart::prior_bias).
  /// High by design: at 0.9 a typical rollout deviates from the previous
  /// mapping in only a couple of layers, so the incremental budget explores
  /// a local neighbourhood of the previous decision (plus the unconstrained
  /// layers of newly arrived streams) instead of scattering single-layer
  /// flips that fragment pipeline stages.
  double prior_bias = 0.9;
  /// SLO reward shaping in warm reschedule(): when the context carries
  /// latency SLOs AND a board model, every candidate mapping is DES-replayed
  /// (with the context's migration stalls applied, if any) and candidates
  /// whose replayed p99 frame latency breaks a stream's SLO (shared rule:
  /// sim::breaks_slo) are demoted by slo_shape once per violating stream —
  /// positive rewards shrink toward zero, negative ones are pushed further
  /// down, so the ordering holds in both reward-sign regimes. Violators
  /// stay comparable (a heavily-violating mapping may beat nothing), just
  /// dominated by any SLO-clean candidate of similar quality.
  double slo_shape = 0.25;
  /// Hard-prune variant of the knob above: violating candidates are demoted
  /// by a constant reward offset per violating stream — far below any
  /// SLO-clean candidate whatever the estimator's reward sign — so they can
  /// never outrank a clean one. The search still returns SOME mapping when
  /// every candidate violates (least-violating, estimator-best among ties).
  bool slo_hard_prune = false;
};

/// Production scheduler: estimator-guided Monte Carlo Tree Search.
class OmniBoostScheduler final : public IScheduler {
 public:
  /// \param zoo        dataset networks (layer counts, embedding columns)
  /// \param embedding  profiled distributed-embeddings tensor
  /// \param estimator  trained throughput estimator (shared, not owned
  ///                   exclusively — several schedulers may reuse it)
  OmniBoostScheduler(const models::ModelZoo& zoo,
                     const EmbeddingTensor& embedding,
                     std::shared_ptr<const ThroughputEstimator> estimator,
                     const OmniBoostConfig& config = {});

  std::string name() const override { return "OmniBoost"; }
  ScheduleResult schedule(const workload::Workload& w) override;

  /// Warm-started incremental decision (serving runtime path): surviving
  /// streams' previous assignments become the search prior, the budget
  /// shrinks to rollout_fraction of the cold budget, and the search keeps
  /// no state across calls: each decision starts from a fresh evaluation
  /// memo, so re-deciding the same (w, previous, ctx) repeats the decision
  /// and its accounting exactly. Runs a single search tree regardless of
  /// OmniBoostConfig::workers — splitting an already-shrunken budget over
  /// root-parallel trees starves each one.
  /// With ctx.warm_start == false this is exactly schedule(w).
  ///
  /// SLO/churn awareness: when ctx.slo_s names at least one SLO and
  /// ctx.board is set, rewards are shaped by a DES replay of each candidate
  /// (OmniBoostConfig::slo_shape / slo_hard_prune), with ctx.migration's
  /// per-candidate stalls applied — they reject candidates whose own churn
  /// would starve an SLO stream for the whole window (cheaper stalls price
  /// into the runtime's measured T, not latency). Every distinct candidate
  /// is replayed once (ScheduleResult::des_replays == evaluations).
  /// With no SLOs in the context this path is bit-identical to the pre-SLO
  /// reschedule (pinned by tests/serving_test.cpp).
  ScheduleResult reschedule(const workload::Workload& w,
                            const sim::Mapping& previous,
                            const ScheduleContext& ctx) override;

 private:
  /// The estimator instance the search should query: the shared one when
  /// its kernel matches config_.kernel, else a private clone with the
  /// requested kernel (serialization round-trip; the shared instance is
  /// never mutated).
  std::shared_ptr<const ThroughputEstimator> active_estimator() const;
  /// Scores a wave of mappings for workload \p w with ONE batched CNN
  /// forward pass through \p est.
  BatchMappingEvaluator batch_evaluator(
      const workload::Workload& w,
      std::shared_ptr<const ThroughputEstimator> est) const;

  const models::ModelZoo* zoo_;
  const EmbeddingTensor* embedding_;
  std::shared_ptr<const ThroughputEstimator> estimator_;
  OmniBoostConfig config_;
};

/// Generic search-based scheduler around an arbitrary mapping evaluator —
/// the ablation harness uses it to swap the estimator for a DES oracle or a
/// linear probe while keeping the identical MCTS.
class MctsScheduler final : public IScheduler {
 public:
  MctsScheduler(std::string name, const models::ModelZoo& zoo,
                MappingEvaluator evaluator, MctsConfig config);

  std::string name() const override { return name_; }
  ScheduleResult schedule(const workload::Workload& w) override;

 private:
  std::string name_;
  const models::ModelZoo* zoo_;
  MappingEvaluator evaluator_;
  MctsConfig config_;
};

}  // namespace omniboost::core
