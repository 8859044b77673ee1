#pragma once
/// \file harness.hpp
/// Shared pieces of the benchmark harness: wall-clock spans, the
/// pass-through scheduler that times every decision from outside the
/// scheduler, and the in-process layer suite (layers.cpp).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/embedding.hpp"
#include "core/estimator.hpp"
#include "core/scheduler.hpp"
#include "models/zoo.hpp"
#include "sim/des.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace ob = omniboost;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Spans kept in memory for the whole run and written out once at the end.
/// Times are nanoseconds since the recorder was built.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;         ///< index of the parent span, -1 for a root
    std::int64_t id = -1;    ///< event or command id (-1 = none)
  };

  int begin(const std::string& name, std::int64_t id, int parent = -1);
  void end(int span);
  /// [[name, start_us, end_us, parent, id], ...]
  ob::util::Json to_json() const;

 private:
  std::int64_t now_ns() const;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// One decided (mix, mapping) pair, kept to drive the layer timings with
/// the shapes the run actually produced.
struct DecidedSample {
  ob::workload::Workload workload;
  ob::sim::Mapping mapping;
};

/// What the pass-through scheduler saw across all boards.
struct DecisionStats {
  std::size_t decisions = 0;
  double decide_s = 0.0;
  std::size_t evaluations = 0;
  std::size_t cache_hits = 0;
  std::size_t des_replays = 0;
  std::size_t replay_hits = 0;
  /// Fingerprint of the first `fingerprint_limit` decisions: mapping hash
  /// and the bits of the scheduler's own score, in decision order.
  std::uint64_t fingerprint = 0xcbf29ce484222325ULL;
  std::size_t fingerprint_limit = 0;
  std::vector<DecidedSample> samples;  ///< first kMaxSamples decisions
  static constexpr std::size_t kMaxSamples = 48;
  /// When set, every decision records a `decide` span under `parent`.
  SpanRecorder* spans = nullptr;
  int parent = -1;
  std::int64_t id = -1;
};

/// Forwards schedule()/reschedule() to the wrapped scheduler unchanged and
/// records, around each call, its wall time and its counters.
class TimedScheduler final : public ob::core::IScheduler {
 public:
  TimedScheduler(std::unique_ptr<ob::core::IScheduler> inner,
                 DecisionStats& stats)
      : inner_(std::move(inner)), stats_(&stats) {}

  std::string name() const override { return inner_->name(); }
  ob::core::ScheduleResult schedule(
      const ob::workload::Workload& w) override;
  ob::core::ScheduleResult reschedule(
      const ob::workload::Workload& w, const ob::sim::Mapping& previous,
      const ob::core::ScheduleContext& ctx) override;

 private:
  template <typename Call>
  ob::core::ScheduleResult timed(const ob::workload::Workload& w, Call call);

  std::unique_ptr<ob::core::IScheduler> inner_;
  DecisionStats* stats_;
};

/// The daemon's fleet, as `omniboost_cli serve --listen 0 --scheduler greedy
/// --boards <n>` builds it: stock heterogeneous boards, default cluster and
/// serving settings (warm start on, migration-cost model off).
ob::core::ClusterConfig daemon_cluster_config();

/// A Greedy scheduler per board, each wrapped in a TimedScheduler.
ob::core::SchedulerFactory timed_greedy_factory(
    const ob::models::ModelZoo& zoo, const ob::core::Cluster& cluster,
    DecisionStats& stats);

/// Inputs of the in-process layer timings.
struct LayerInputs {
  const ob::models::ModelZoo* zoo = nullptr;
  const ob::core::EmbeddingTensor* embedding = nullptr;
  const ob::sim::DesSimulator* board = nullptr;
  /// Queried for the forward timing only; an untrained estimator has the
  /// same shapes, hence the same cost.
  std::shared_ptr<const ob::core::ThroughputEstimator> estimator;
  /// Event clauses of the daemon stream (no `status` lines).
  std::vector<std::string> clauses;
  /// Decisions of the run; empty = use the in-process mirror's decisions.
  std::vector<DecidedSample> decided;
};

/// Times each layer through its public functions, from outside:
/// workload (parse, validate), core/cluster (Greedy 4-board mirror of the
/// daemon stream: apply, finish, format), nn (per-stage forward at the
/// estimator's shapes), core/estimator (predict_rewards) and sim (DES
/// replay and measurement). Returns a flat object of named metrics, with
/// `nn.stages_match` = 1 while the timed stage copy still computes what
/// the estimator computes.
ob::util::Json run_layer_suite(const LayerInputs& in);

}  // namespace perfbench
