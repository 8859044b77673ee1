/// \file harness.cpp
/// In-process half of the benchmark; perfbench/run.py runs it.
///
///   perfbench_harness serve    --workload serve-warm|serve-slo-recur
///                              --seed N --seconds S --trace 0|1 [--stream F]
///   perfbench_harness replay   --trace-file F --boards N
///   perfbench_harness validate --stream F --boards N
///   perfbench_harness scenario --workload W --seed N
///   perfbench_harness layers   --stream F
///   perfbench_harness host
///
/// Every subcommand prints one JSON object as its last stdout line; --help
/// after a subcommand lists its options. The program is driven only
/// through its public entry points: the design-time
/// pipeline (embedding, dataset, estimator fit), core::ClusterSession
/// construct/apply/finish, and schedulers built by their public
/// constructors. Raw samples are returned; run.py computes percentiles.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "core/dataset.hpp"
#include "core/omniboost.hpp"
#include "device/cost_model.hpp"
#include "device/device.hpp"
#include "harness.hpp"
#include "models/model_id.hpp"
#include "nn/kernel.hpp"
#include "nn/loss.hpp"
#include "sched/greedy.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "workload/scenario.hpp"

namespace perfbench {

namespace {

/// FNV-1a over raw bytes, chainable through \p h.
std::uint64_t fnv1a(const void* data, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ULL) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int SpanRecorder::begin(const std::string& name, std::int64_t id,
                        int parent) {
  Span s;
  s.name = name;
  s.id = id;
  s.parent = parent;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanRecorder::end(int span) { spans_[span].end_ns = now_ns(); }

ob::util::Json SpanRecorder::to_json() const {
  using ob::util::Json;
  Json out = Json::array();
  for (const Span& s : spans_) {
    Json row = Json::array();
    row.push_back(Json::string(s.name));
    row.push_back(Json::number(static_cast<double>(s.start_ns) * 1e-3));
    row.push_back(Json::number(static_cast<double>(s.end_ns) * 1e-3));
    row.push_back(Json::number(static_cast<double>(s.parent)));
    row.push_back(Json::number(static_cast<double>(s.id)));
    out.push_back(std::move(row));
  }
  return out;
}

template <typename Call>
ob::core::ScheduleResult TimedScheduler::timed(
    const ob::workload::Workload& w, Call call) {
  DecisionStats& st = *stats_;
  const int span =
      st.spans != nullptr ? st.spans->begin("decide", st.id, st.parent) : -1;
  const Clock::time_point t0 = Clock::now();
  ob::core::ScheduleResult r = call();
  st.decide_s += seconds_between(t0, Clock::now());
  if (span >= 0) st.spans->end(span);
  st.evaluations += r.evaluations;
  st.cache_hits += r.cache_hits;
  st.des_replays += r.des_replays;
  st.replay_hits += r.replay_hits;
  if (st.decisions < st.fingerprint_limit) {
    const std::uint64_t mh = r.mapping.hash();
    st.fingerprint = fnv1a(&mh, sizeof mh, st.fingerprint);
    st.fingerprint = fnv1a(&r.expected_reward, sizeof r.expected_reward,
                           st.fingerprint);
  }
  if (st.samples.size() < DecisionStats::kMaxSamples)
    st.samples.push_back({w, r.mapping});
  ++st.decisions;
  return r;
}

ob::core::ScheduleResult TimedScheduler::schedule(
    const ob::workload::Workload& w) {
  return timed(w, [&] { return inner_->schedule(w); });
}

ob::core::ScheduleResult TimedScheduler::reschedule(
    const ob::workload::Workload& w, const ob::sim::Mapping& previous,
    const ob::core::ScheduleContext& ctx) {
  return timed(w, [&] { return inner_->reschedule(w, previous, ctx); });
}

ob::core::ClusterConfig daemon_cluster_config() {
  ob::core::ClusterConfig cc;
  cc.migrate = true;
  cc.rebalance_on_recovery = false;
  cc.cross_board_gbps = 1.0;
  return cc;
}

ob::core::SchedulerFactory timed_greedy_factory(
    const ob::models::ModelZoo& zoo, const ob::core::Cluster& cluster,
    DecisionStats& stats) {
  return [&zoo, &cluster, &stats](std::size_t i)
             -> std::unique_ptr<ob::core::IScheduler> {
    return std::make_unique<TimedScheduler>(
        std::make_unique<ob::sched::GreedyScheduler>(
            zoo, cluster.boards()[i].device),
        stats);
  };
}

namespace {

using ob::util::Json;
namespace core = ob::core;
namespace workload = ob::workload;
namespace models = ob::models;

/// Peak resident set size of this process (VmHWM), in MB.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kb = 0.0;
      is >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line))
    if (!line.empty()) lines.push_back(line);
  return lines;
}

Json number_array(const std::vector<double>& v) {
  Json a = Json::array();
  for (const double x : v) a.push_back(Json::number(x));
  return a;
}

// ---------------------------------------------------------------------------
// Workload inputs, all drawn from the seed.
// ---------------------------------------------------------------------------

/// A serve-* input: the events, and the round structure the measured loop
/// ends on. Each round gives every model (serve-warm) or every mix
/// (serve-slo-recur) the same share; ending on a round boundary keeps the
/// run's composition, and so its decision cost and throughput, nearly the
/// same from seed to seed.
struct ServeInput {
  workload::Scenario scenario;
  /// Events applied when each round ends; the first ends the lead-in.
  std::vector<std::size_t> round_ends;
  std::size_t lead() const { return round_ends.front(); }
};

double exp_gap(ob::util::Rng& rng, double mean) {
  return -mean * std::log(1.0 - rng.uniform());
}

/// serve-warm: streams arrive at Poisson times (mean gap 0.5 s), no SLOs.
/// Once 5 are resident, the two oldest leave before the next two arrive,
/// so after the lead-in the mix cycles through 4, 3, 4 and 5 streams:
/// every event is a warm decision and every stream stays for the same
/// number of events. Each round of 11 arrivals deals every zoo model
/// once, alternating between the lighter six and the heavier five (by
/// FLOPs), each half shuffled anew: mixes are mostly fresh, yet their load
/// varies little from seed to seed.
ServeInput serve_warm_scenario(std::uint64_t seed, const models::ModelZoo& zoo,
                               std::size_t rounds = 200) {
  constexpr std::size_t kMaxConcurrent = 5, kDrainTo = 3;
  std::vector<models::ModelId> by_flops(models::kAllModels.begin(),
                                        models::kAllModels.end());
  std::sort(by_flops.begin(), by_flops.end(),
            [&zoo](models::ModelId a, models::ModelId b) {
              return zoo.network(a).total_flops() <
                     zoo.network(b).total_flops();
            });
  const std::size_t n_light = (by_flops.size() + 1) / 2;
  ob::util::Rng rng(ob::util::fork_stream(seed, 0));
  std::vector<models::ModelId> present;
  std::vector<workload::ScenarioEvent> ev;
  std::vector<std::size_t> ends;
  double t = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::vector<models::ModelId> half[2] = {
        {by_flops.begin(), by_flops.begin() + n_light},
        {by_flops.begin() + n_light, by_flops.end()}};
    for (auto& h : half)
      for (std::size_t i = h.size(); i > 1; --i)
        std::swap(h[i - 1], h[rng.below(i)]);
    for (std::size_t k = 0; k < by_flops.size(); ++k) {
      workload::ScenarioEvent e;
      if (present.size() == kMaxConcurrent) {
        while (present.size() > kDrainTo) {
          e.kind = workload::ScenarioEventKind::kDepart;
          e.time_s = t;
          e.model = present.front();
          present.erase(present.begin());
          ev.push_back(e);
        }
      }
      // Deal the first card of this half that is not still resident from
      // the previous round; one always is, as at most 2 of the previous
      // round's residents belong to either half.
      std::vector<models::ModelId>& cards = half[k % 2];
      const auto card = std::find_if(
          cards.begin(), cards.end(), [&present](models::ModelId m) {
            return std::find(present.begin(), present.end(), m) ==
                   present.end();
          });
      if (card == cards.end())
        throw std::logic_error("serve-warm: no card left to deal");
      t += exp_gap(rng, 0.5);
      e.kind = workload::ScenarioEventKind::kArrive;
      e.time_s = t;
      e.model = *card;
      cards.erase(card);
      present.push_back(e.model);
      ev.push_back(e);
    }
    ends.push_back(ev.size());
  }
  return {workload::Scenario(std::move(ev)), std::move(ends)};
}

/// The SLO unit of the slo-recur workload: each model's p99 frame latency
/// when it runs alone, all on the GPU.
std::vector<double> solo_gpu_p99_s(const models::ModelZoo& zoo,
                                   const ob::sim::DesSimulator& board) {
  std::vector<double> solo(models::kNumModels, 0.0);
  for (std::size_t m = 0; m < models::kNumModels; ++m) {
    const workload::Workload w{{models::kAllModels[m]}};
    const ob::sim::Mapping gpu = ob::sim::Mapping::all_on(
        w.layer_counts(zoo), ob::device::ComponentId::kGpu);
    solo[m] = board.simulate_traced(w.resolve(zoo), gpu)
                  .trace.per_dnn_latency[0]
                  .p99;
  }
  return solo;
}

constexpr double kSloTightness = 25.0;  // E3's "medium" point
constexpr models::ModelId kRecurBase[] = {models::ModelId::kResNet50,
                                          models::ModelId::kMobileNet};
constexpr models::ModelId kRecurToggles[] = {models::ModelId::kAlexNet,
                                             models::ModelId::kSqueezeNet,
                                             models::ModelId::kResNet34};

/// serve-slo-recur: a stable base of two streams, and three streams that
/// toggle one at a time (Poisson times, mean gap 3 s), so at most 2^3 = 8
/// mixes recur. Each round of 8 toggles walks a Gray-code cycle over the
/// toggles in a seeded order, visiting every mix exactly once. Every
/// arrival carries an SLO of kSloTightness x its solo GPU p99.
ServeInput slo_recur_scenario(std::uint64_t seed,
                              const std::vector<double>& solo_s,
                              std::size_t rounds = 400) {
  const auto slo_ms = [&](models::ModelId m) {
    return kSloTightness * 1e3 * solo_s[models::model_index(m)];
  };
  std::vector<workload::ScenarioEvent> ev;
  for (const models::ModelId m : kRecurBase) {
    workload::ScenarioEvent e;
    e.kind = workload::ScenarioEventKind::kArrive;
    e.model = m;
    e.slo_ms = slo_ms(m);
    ev.push_back(e);
  }
  // Bit flipped at each step of the 3-bit reflected Gray-code cycle.
  constexpr std::size_t kGrayFlips[8] = {0, 1, 0, 2, 0, 1, 0, 2};
  ob::util::Rng rng(ob::util::fork_stream(seed, 0));
  bool present[3] = {false, false, false};
  double t = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    std::size_t order[3] = {0, 1, 2};
    for (std::size_t i = 3; i > 1; --i)
      std::swap(order[i - 1], order[rng.below(i)]);
    for (const std::size_t flip : kGrayFlips) {
      const std::size_t k = order[flip];
      t += exp_gap(rng, 3.0);
      workload::ScenarioEvent e;
      e.time_s = t;
      e.model = kRecurToggles[k];
      if (present[k]) {
        e.kind = workload::ScenarioEventKind::kDepart;
      } else {
        e.kind = workload::ScenarioEventKind::kArrive;
        e.slo_ms = slo_ms(e.model);
      }
      present[k] = !present[k];
      ev.push_back(e);
    }
  }
  std::vector<std::size_t> ends;
  for (std::size_t e = 2; e <= ev.size(); e += 8) ends.push_back(e);
  return {workload::Scenario(std::move(ev)), std::move(ends)};
}

/// Distinct mixes (as model sets) the first \p n events of \p in visit,
/// from the end of its lead-in on.
std::size_t distinct_mixes(const ServeInput& in, std::size_t n) {
  const workload::Scenario& s = in.scenario;
  std::set<std::vector<std::size_t>> seen;
  std::set<std::size_t> present;
  for (std::size_t i = 0; i < std::min(n, s.size()); ++i) {
    const workload::ScenarioEvent& e = s.events()[i];
    const std::size_t m = models::model_index(e.model);
    if (e.kind == workload::ScenarioEventKind::kArrive) present.insert(m);
    if (e.kind == workload::ScenarioEventKind::kDepart) present.erase(m);
    if (i + 1 >= in.lead() && !present.empty())
      seen.insert(std::vector<std::size_t>(present.begin(), present.end()));
  }
  return seen.size();
}

// ---------------------------------------------------------------------------
// Design time: zoo, embedding, dataset, estimator fit — up to the session.
// ---------------------------------------------------------------------------

struct Design {
  ob::device::DeviceSpec device = ob::device::make_hikey970();
  std::unique_ptr<models::ModelZoo> zoo;
  std::unique_ptr<ob::device::CostModel> cost;
  std::unique_ptr<core::EmbeddingTensor> embedding;
  std::unique_ptr<ob::sim::DesSimulator> board;
  std::shared_ptr<const core::ThroughputEstimator> estimator;
  std::uint64_t weights_fingerprint = 0;
  double embedding_s = 0.0, dataset_s = 0.0, fit_s = 0.0;
};

/// The reduced design-time campaign fixed by the benchmark: the same
/// campaign (and dataset seed) for every workload seed.
struct Campaign {
  std::size_t samples = 150;
  std::size_t epochs = 20;
  std::uint64_t dataset_seed = 42;
};

/// Design-time builds per serve-* run; setup_s is their median. The first
/// build's estimator drives the repeatability replay, the last the run.
constexpr std::size_t kSetupReps = 3;
static_assert(kSetupReps >= 2, "the replay needs an estimator of its own");
/// Decisions a fresh session replays to check repeatability.
constexpr std::size_t kFingerprintPrefix = 12;
/// Decisions a loop collects before it may stop: run.py's p90 refuses
/// fewer than 10 samples beyond it, i.e. fewer than 100.
constexpr std::size_t kMinDecisions = 100;

std::unique_ptr<Design> build_design(const Campaign& c, SpanRecorder* spans) {
  auto d = std::make_unique<Design>();
  const auto phase = [&](const char* name, double* out, auto&& body) {
    const int span = spans != nullptr ? spans->begin(name, -1) : -1;
    const Clock::time_point t0 = Clock::now();
    body();
    *out = seconds_between(t0, Clock::now());
    if (span >= 0) spans->end(span);
  };
  phase("setup.embedding", &d->embedding_s, [&] {
    d->zoo = std::make_unique<models::ModelZoo>();
    d->cost = std::make_unique<ob::device::CostModel>(d->device);
    d->embedding = std::make_unique<core::EmbeddingTensor>(*d->zoo, *d->cost);
    d->board = std::make_unique<ob::sim::DesSimulator>(d->device);
  });
  core::SampleSet data;
  phase("setup.dataset", &d->dataset_s, [&] {
    core::DatasetConfig dc;
    dc.samples = c.samples;
    dc.seed = c.dataset_seed;
    data = core::generate_dataset(*d->zoo, *d->embedding, *d->board, dc);
  });
  phase("setup.fit", &d->fit_s, [&] {
    auto est = std::make_shared<core::ThroughputEstimator>(
        d->embedding->models_dim(), d->embedding->layers_dim());
    ob::nn::L1Loss l1;
    ob::nn::TrainConfig tc;
    tc.epochs = c.epochs;
    est->fit(data, c.samples / 5, l1, tc);
    std::ostringstream os;
    est->save(os);
    const std::string bytes = os.str();
    d->weights_fingerprint = fnv1a(bytes.data(), bytes.size());
    d->estimator = std::move(est);
  });
  return d;
}

/// One board, as the serve-* workloads run it.
struct ServeFleet {
  ServeFleet(const Design& d, bool slo_recur, DecisionStats& stats)
      : cluster(*d.zoo, {core::BoardSpec{"hikey970", d.device}},
                config(slo_recur)),
        policy(core::make_placement_policy("least-loaded")),
        session(cluster,
                [&d, &stats](std::size_t) -> std::unique_ptr<core::IScheduler> {
                  return std::make_unique<TimedScheduler>(
                      std::make_unique<core::OmniBoostScheduler>(
                          *d.zoo, *d.embedding, d.estimator),
                      stats);
                },
                *policy) {}

  static core::ClusterConfig config(bool slo_recur) {
    core::ClusterConfig cc;
    cc.serving.warm_start = true;
    if (slo_recur) {
      cc.serving.migration.enabled = true;
      cc.serving.migration.scale = 2.0;
    }
    return cc;
  }

  core::Cluster cluster;
  std::unique_ptr<core::IPlacementPolicy> policy;
  core::ClusterSession session;
};

bool conserved(const core::ClusterReport& r) {
  return r.admitted_streams ==
         r.departures + r.shed_streams + r.resident_streams;
}

std::string conservation_line(const core::ClusterReport& r) {
  std::istringstream is(core::format_cluster_report(r));
  std::string line;
  while (std::getline(is, line))
    if (line.rfind("conservation:", 0) == 0) return line;
  return "";
}

ServeInput scenario_for(const std::string& name, std::uint64_t seed,
                                const models::ModelZoo& zoo,
                                const ob::sim::DesSimulator& board) {
  if (name == "serve-warm") return serve_warm_scenario(seed, zoo);
  if (name == "serve-slo-recur")
    return slo_recur_scenario(seed, solo_gpu_p99_s(zoo, board));
  throw std::invalid_argument("unknown serve workload " + name);
}

int cmd_serve(int argc, char** argv) {
  ob::util::ArgParser args("perfbench_harness serve",
                           "One serve-* run; prints its raw samples.");
  args.option("workload", "serve-warm | serve-slo-recur")
      .option("seed", "input seed")
      .option("seconds", "measured wall time")
      .option("trace", "1 = spans and the layer suite")
      .option("stream", "daemon event clauses for the layer suite (trace 1)");
  if (!args.parse(argc - 1, argv + 1)) return 0;  // --help
  const std::string name = args.get("workload");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const double seconds = args.get_double("seconds");
  const bool trace = args.get_int("trace") != 0;
  const Campaign campaign;
  // Past `seconds`, a loop runs on until it holds the samples its
  // percentiles need, but never past this.
  const double max_seconds = 3.0 * seconds;
  const bool slo_recur = name == "serve-slo-recur";

  // Inputs come from the seed alone, before any timed set-up.
  const ob::device::DeviceSpec input_device = ob::device::make_hikey970();
  const models::ModelZoo input_zoo;
  const ob::sim::DesSimulator input_board(input_device);
  const ServeInput input = scenario_for(name, seed, input_zoo, input_board);
  const workload::Scenario& scenario = input.scenario;

  SpanRecorder spans;
  SpanRecorder* rec = trace ? &spans : nullptr;

  // Design time, several times over; setup_s is each rep's time until the
  // session is ready for its first apply.
  std::vector<double> setup_s, emb_s, ds_s, fit_s;
  std::unique_ptr<Design> first, last;
  bool weights_equal = true;
  std::unique_ptr<ServeFleet> fleet;
  DecisionStats stats;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    fleet.reset();
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Design> d =
        build_design(campaign, r + 1 == kSetupReps ? rec : nullptr);
    stats = DecisionStats{};
    stats.fingerprint_limit = kFingerprintPrefix;
    fleet = std::make_unique<ServeFleet>(*d, slo_recur, stats);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    emb_s.push_back(d->embedding_s);
    ds_s.push_back(d->dataset_s);
    fit_s.push_back(d->fit_s);
    if (first && d->weights_fingerprint != first->weights_fingerprint)
      weights_equal = false;
    if (!first) {
      first = std::move(d);
    } else {
      last = std::move(d);
    }
  }
  // The measured loop: events back to back, each followed by a status
  // read. Throughput is averaged over the epochs after the lead-in, whose
  // small fill-up mixes would otherwise weigh on it by seed.
  stats.spans = rec;
  std::vector<double> decision_ms, status_ms, epoch_T;
  std::size_t applied = 0, attempted = 0, failed = 0;
  std::size_t next_end = 0;
  const Clock::time_point start = Clock::now();
  while (applied < scenario.size()) {
    const double elapsed = seconds_between(start, Clock::now());
    const bool enough = decision_ms.size() >= kMinDecisions;
    while (next_end < input.round_ends.size() &&
           input.round_ends[next_end] < applied)
      ++next_end;
    const bool boundary = next_end < input.round_ends.size() &&
                          input.round_ends[next_end] == applied;
    if ((elapsed >= seconds && enough && boundary) || elapsed >= max_seconds)
      break;
    const auto id = static_cast<std::int64_t>(applied);
    const int span = rec != nullptr ? rec->begin("apply", id) : -1;
    stats.parent = span;
    stats.id = id;
    const std::size_t before = stats.decisions;
    ++attempted;
    const Clock::time_point t0 = Clock::now();
    core::ClusterSession::ApplyOutcome outcome;
    try {
      outcome = fleet->session.apply(scenario.events()[applied]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "apply %zu failed: %s\n", applied, e.what());
      ++failed;
      break;
    }
    const double ms = 1e3 * seconds_between(t0, Clock::now());
    if (span >= 0) rec->end(span);
    if (stats.decisions > before) decision_ms.push_back(ms);
    if (applied >= input.lead() &&
        (outcome.kind == core::ClusterSession::ApplyKind::kAdmitted ||
         outcome.kind == core::ClusterSession::ApplyKind::kDeparted))
      epoch_T.push_back(outcome.measured_throughput);
    ++applied;
    const int sspan = rec != nullptr ? rec->begin("status", id) : -1;
    ++attempted;
    const Clock::time_point s0 = Clock::now();
    const std::string text =
        core::format_cluster_report(fleet->session.finish());
    status_ms.push_back(1e3 * seconds_between(s0, Clock::now()));
    if (sspan >= 0) rec->end(sspan);
    if (text.find("conservation:") == std::string::npos) ++failed;
  }
  const double loop_s = seconds_between(start, Clock::now());
  stats.spans = nullptr;
  const core::ClusterReport report = fleet->session.finish();
  const core::ServingReport& board = report.boards.at(0);
  bool correct = conserved(report) && weights_equal;

  std::size_t infeasible = 0;
  for (const core::EpochReport& ep : board.epochs)
    if (ep.mix_size > 0 && !ep.feasible) ++infeasible;

  // Repeatability: a fresh session on another rep's estimator replays the
  // first kFingerprintPrefix decisions; both fingerprints must match. In a
  // traced run the replay runs untraced, traced, untraced: the traced pass
  // over the mean of the other two is the tracing overhead, free of
  // warm-up order.
  const std::uint64_t main_fp = stats.fingerprint;
  std::uint64_t prefix_fp = main_fp;
  double untraced_ms = 0.0, traced_ms = 0.0;
  if (stats.decisions >= kFingerprintPrefix) {
    const auto replay = [&](SpanRecorder* replay_rec) {
      DecisionStats pstats;
      pstats.fingerprint_limit = kFingerprintPrefix;
      pstats.spans = replay_rec;
      ServeFleet fresh(*first, slo_recur, pstats);
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0;
           i < applied && pstats.decisions < kFingerprintPrefix; ++i) {
        const int span =
            replay_rec != nullptr
                ? replay_rec->begin("apply", static_cast<std::int64_t>(i))
                : -1;
        pstats.parent = span;
        fresh.session.apply(scenario.events()[i]);
        if (span >= 0) replay_rec->end(span);
      }
      prefix_fp = pstats.fingerprint;
      if (prefix_fp != main_fp) correct = false;
      return 1e3 * seconds_between(t0, Clock::now());
    };
    untraced_ms = replay(nullptr);
    if (trace) {
      SpanRecorder discarded;
      traced_ms = replay(&discarded);
      untraced_ms = 0.5 * (untraced_ms + replay(nullptr));
    }
  }
  fleet.reset();

  Json out = Json::object();
  out.set("workload", Json::string(name));
  out.set("correct", Json::boolean(correct));
  out.set("attempted", Json::number(attempted));
  out.set("failed", Json::number(failed));
  out.set("conserved", Json::boolean(conserved(report)));
  out.set("weights_equal", Json::boolean(weights_equal));
  out.set("estimator_fingerprint",
          Json::string(hex64(last->weights_fingerprint)));
  out.set("decision_fingerprint", Json::string(hex64(main_fp)));
  out.set("prefix_fingerprint", Json::string(hex64(prefix_fp)));
  out.set("fingerprint_decisions", Json::number(kFingerprintPrefix));
  out.set("setup_s", number_array(setup_s));
  out.set("setup_embedding_s", number_array(emb_s));
  out.set("setup_dataset_s", number_array(ds_s));
  out.set("setup_fit_s", number_array(fit_s));
  out.set("events", Json::number(applied));
  out.set("loop_s", Json::number(loop_s));
  out.set("decision_ms", number_array(decision_ms));
  out.set("status_ms", number_array(status_ms));
  double sum_T = 0.0;
  for (const double T : epoch_T) sum_T += T;
  out.set("sim_T_inf_s",
          Json::number(epoch_T.empty()
                           ? 0.0
                           : sum_T / static_cast<double>(epoch_T.size())));
  out.set("peak_rss_mb", Json::number(peak_rss_mb()));
  out.set("decisions", Json::number(stats.decisions));
  out.set("decide_s", Json::number(stats.decide_s));
  out.set("evaluations", Json::number(stats.evaluations));
  out.set("cache_hits", Json::number(stats.cache_hits));
  out.set("des_replays", Json::number(stats.des_replays));
  out.set("replay_hits", Json::number(stats.replay_hits));
  out.set("infeasible_epochs", Json::number(infeasible));
  out.set("mean_churn", Json::number(board.mean_churn));
  out.set("slo_streams", Json::number(report.total_slo_streams));
  out.set("slo_violations", Json::number(report.total_slo_violations));
  out.set("distinct_mixes", Json::number(distinct_mixes(input, applied)));
  out.set("admitted", Json::number(report.admitted_streams));
  out.set("rejected", Json::number(report.rejected_streams));
  out.set("shed", Json::number(report.shed_streams));
  out.set("migrations", Json::number(report.migrations));
  out.set("failovers", Json::number(report.failovers));
  if (trace) {
    out.set("prefix_traced_ms", Json::number(traced_ms));
    out.set("prefix_untraced_ms", Json::number(untraced_ms));
    LayerInputs in;
    in.zoo = last->zoo.get();
    in.embedding = last->embedding.get();
    in.board = last->board.get();
    in.estimator = last->estimator;
    in.clauses = read_lines(args.get("stream"));
    in.decided = stats.samples;
    out.set("layers", run_layer_suite(in));
    out.set("spans", spans.to_json());
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// The daemon stream's event clauses stamped 1 ms apart, as a Scenario.
std::vector<workload::ScenarioEvent> stamp(
    const std::vector<std::string>& clauses) {
  std::vector<workload::ScenarioEvent> ev;
  ev.reserve(clauses.size());
  for (std::size_t i = 0; i < clauses.size(); ++i)
    ev.push_back(workload::parse_event_clause(clauses[i],
                                              1e-3 * static_cast<double>(i)));
  return ev;
}

int cmd_validate(int argc, char** argv) {
  ob::util::ArgParser args("perfbench_harness validate",
                           "Is a daemon stream a valid Scenario?");
  args.option("stream", "event clauses, one a line")
      .option("boards", "fleet size");
  if (!args.parse(argc - 1, argv + 1)) return 0;  // --help
  const auto boards = static_cast<std::size_t>(args.get_int("boards"));
  const std::vector<std::string> clauses = read_lines(args.get("stream"));
  Json out = Json::object();
  try {
    const workload::Scenario s(stamp(clauses));
    if (s.fault_board_span() > boards)
      throw std::invalid_argument("fault event beyond the fleet");
    out.set("valid", Json::boolean(true));
    out.set("events", Json::number(s.size()));
  } catch (const std::invalid_argument& e) {
    out.set("valid", Json::boolean(false));
    out.set("error", Json::string(e.what()));
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// Offline replay of a daemon's saved trace through Cluster::run, with the
/// daemon's fleet and scheduler (D6: must reproduce its accounting).
int cmd_replay(int argc, char** argv) {
  ob::util::ArgParser args("perfbench_harness replay",
                           "Cluster::run replay of a daemon's saved trace.");
  args.option("trace-file", "save-trace output")
      .option("boards", "fleet size of the daemon");
  if (!args.parse(argc - 1, argv + 1)) return 0;  // --help
  const auto boards = static_cast<std::size_t>(args.get_int("boards"));
  const workload::Scenario s =
      workload::load_scenario_file(args.get("trace-file"));
  const models::ModelZoo zoo;
  const core::Cluster cluster(zoo, core::make_heterogeneous_fleet(boards),
                              daemon_cluster_config());
  const auto policy = core::make_placement_policy("least-loaded");
  DecisionStats stats;
  const core::ClusterReport r =
      cluster.run(timed_greedy_factory(zoo, cluster, stats), s, *policy);
  Json out = Json::object();
  out.set("events", Json::number(s.size()));
  out.set("conservation", Json::string(conservation_line(r)));
  out.set("conserved", Json::boolean(conserved(r)));
  out.set("admitted", Json::number(r.admitted_streams));
  out.set("rejected", Json::number(r.rejected_streams));
  out.set("shed", Json::number(r.shed_streams));
  out.set("migrations", Json::number(r.migrations));
  out.set("failovers", Json::number(r.failovers));
  out.set("mean_T", Json::number(r.fleet_throughput));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// The serve-* scenario a seed draws, summarised for the generator tests.
int cmd_scenario(int argc, char** argv) {
  ob::util::ArgParser args("perfbench_harness scenario",
                           "Summary of the serve-* scenario a seed draws.");
  args.option("workload", "serve-warm | serve-slo-recur")
      .option("seed", "input seed");
  if (!args.parse(argc - 1, argv + 1)) return 0;  // --help
  const std::string name = args.get("workload");
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed"));
  const ob::device::DeviceSpec device = ob::device::make_hikey970();
  const models::ModelZoo zoo;
  const ob::sim::DesSimulator board(device);
  Json out = Json::object();
  try {
    const ServeInput in = scenario_for(name, seed, zoo, board);
    const workload::Scenario& s = in.scenario;
    // Re-validating the events proves the generator kept every invariant.
    const workload::Scenario again(s.events());
    std::size_t slo_arrivals = 0, arrivals = 0;
    for (const workload::ScenarioEvent& e : s.events()) {
      if (e.kind != workload::ScenarioEventKind::kArrive) continue;
      ++arrivals;
      if (e.slo_ms > 0.0) ++slo_arrivals;
    }
    out.set("valid", Json::boolean(again == s && s.fault_board_span() <= 1));
    out.set("events", Json::number(s.size()));
    out.set("peak_concurrency", Json::number(s.peak_concurrency()));
    out.set("distinct_mixes", Json::number(distinct_mixes(in, s.size())));
    out.set("arrivals", Json::number(arrivals));
    out.set("slo_arrivals", Json::number(slo_arrivals));
  } catch (const std::invalid_argument& e) {
    out.set("valid", Json::boolean(false));
    out.set("error", Json::string(e.what()));
  }
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// The layer suite alone, for the daemon workload's traced run: the
/// estimator is untrained (the Greedy daemon trains none) — same shapes,
/// same forward cost.
int cmd_layers(int argc, char** argv) {
  ob::util::ArgParser args("perfbench_harness layers",
                           "The in-process layer suite alone.");
  args.option("stream", "daemon event clauses, one a line");
  if (!args.parse(argc - 1, argv + 1)) return 0;  // --help
  const ob::device::DeviceSpec device = ob::device::make_hikey970();
  const models::ModelZoo zoo;
  const ob::device::CostModel cost(device);
  const core::EmbeddingTensor embedding(zoo, cost);
  const ob::sim::DesSimulator board(device);
  LayerInputs in;
  in.zoo = &zoo;
  in.embedding = &embedding;
  in.board = &board;
  in.estimator = std::make_shared<const core::ThroughputEstimator>(
      embedding.models_dim(), embedding.layers_dim());
  in.clauses = read_lines(args.get("stream"));
  Json out = Json::object();
  out.set("layers", run_layer_suite(in));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

/// The compute kernel the estimator layers resolve to on this host.
int cmd_host() {
  namespace nn = ob::nn;
  Json out = Json::object();
  out.set("kernel", Json::string(nn::kernel_name(
                        nn::resolve_kernel(nn::default_kernel()))));
  const std::string note = nn::kernel_resolution_note(nn::KernelKind::kSimd);
  out.set("simd", Json::string(note.empty() ? "available" : note));
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness serve|replay|validate|scenario|"
                 "layers|host [--option value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "replay") return cmd_replay(argc, argv);
    if (cmd == "validate") return cmd_validate(argc, argv);
    if (cmd == "scenario") return cmd_scenario(argc, argv);
    if (cmd == "layers") return cmd_layers(argc, argv);
    if (cmd == "host") return cmd_host();
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
