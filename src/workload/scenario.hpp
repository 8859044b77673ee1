#pragma once
/// \file scenario.hpp
/// Dynamic multi-DNN scenarios: a timestamped script of models arriving at
/// and departing from the board. Where workload::Workload answers "what is
/// running right now", a Scenario describes how that answer changes over a
/// serving session — the input the core::ServingRuntime replays against an
/// IScheduler to exercise contextual rescheduling.
///
/// Scenarios are scriptable and replayable: a seeded random generator
/// (random_scenario) produces churn sweeps deterministically, and a small
/// line-based text trace format round-trips through
/// serialize_scenario/parse_scenario:
///
///     # omniboost scenario trace v1
///     at 0 arrive VGG-19 slo 120
///     at 2.5 arrive AlexNet
///     at 7.25 depart VGG-19
///
/// An arrival may carry a per-stream latency SLO (`slo <ms>`): the stream's
/// end-to-end frame latency target while it is on the board. SLOs are
/// optional — events without the clause serialize exactly as before, so
/// pre-SLO traces round-trip bit-identically.
///
/// Fleet fault events ride the same script (consumed by core::Cluster;
/// workload/faults.hpp generates them from an MTBF/MTTR process):
///
///     at 4 fail board 1
///     at 5 throttle board 0 0.5
///     at 9 recover board 1
///
/// `fail` takes a board out of service, `throttle <factor>` slows a live
/// board to the given speed fraction (0 < factor <= 1), and `recover`
/// restores a failed or throttled board to full health. Validation enforces
/// per-board legality: a board fails only while not already failed,
/// throttles only while not failed, and recovers only while failed or
/// throttled. Fault events never touch the concurrent mix, and fault-free
/// scenarios serialize byte-identically to the pre-fault format.

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "models/model_id.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace omniboost::workload {

/// What happens at an event: a model stream joins/leaves the mix, or a
/// board of the serving fleet changes health (fault events; see the file
/// header for the trace clauses and legality rules).
enum class ScenarioEventKind {
  kArrive,
  kDepart,
  kFailBoard,      ///< board goes out of service
  kThrottleBoard,  ///< board slows to `factor` of full speed
  kRecoverBoard,   ///< board returns to full health
};

/// True for the board-health event kinds (fail/throttle/recover).
constexpr bool is_fault_event(ScenarioEventKind kind) {
  return kind == ScenarioEventKind::kFailBoard ||
         kind == ScenarioEventKind::kThrottleBoard ||
         kind == ScenarioEventKind::kRecoverBoard;
}

/// One change to the concurrent mix or the fleet's health.
struct ScenarioEvent {
  double time_s = 0.0;  ///< event timestamp (seconds since scenario start)
  ScenarioEventKind kind = ScenarioEventKind::kArrive;
  models::ModelId model = models::ModelId::kAlexNet;
  /// Latency SLO of the arriving stream in milliseconds; 0 = none. The SLO
  /// stays attached to the stream until it departs. Departures and fault
  /// events never carry one (enforced at construction).
  double slo_ms = 0.0;
  /// Fault events only: the fleet board the event targets. The scenario
  /// layer does not know the fleet size — core::Cluster range-checks the
  /// index against its own board count at replay time. Must stay 0 on
  /// arrive/depart events.
  std::size_t board = 0;
  /// kThrottleBoard only: the speed fraction the board drops to, in
  /// (0, 1]. Must stay 0 on every other kind.
  double factor = 0.0;

  bool operator==(const ScenarioEvent& rhs) const {
    return time_s == rhs.time_s && kind == rhs.kind && model == rhs.model &&
           slo_ms == rhs.slo_ms && board == rhs.board && factor == rhs.factor;
  }
  bool operator!=(const ScenarioEvent& rhs) const { return !(*this == rhs); }
};

/// The scenario invariants, checked one event at a time — THE event
/// validator. The Scenario constructor, Scenario::mix_after/slo_after and
/// the serving daemon's live command path all run events through it, so a
/// live session cannot accept an event the offline replayer would reject
/// (docs/DETERMINISM.md D6). It holds only what the rules need: the present
/// mix with each stream's SLO, per-board health, and the last timestamp, so
/// a check costs the same at the millionth event as at the first.
class ScenarioValidator {
 public:
  /// Checks \p e against every event accepted so far and commits it.
  /// Transactional: on a breach it throws std::invalid_argument (the
  /// message the Scenario constructor reports) and leaves the state as it
  /// was, so the next event is checked as if \p e had never been offered.
  void accept(const ScenarioEvent& e);

  /// The present streams in arrival order, and their SLOs (seconds, 0 =
  /// none) index-aligned.
  const std::vector<models::ModelId>& present() const { return present_; }
  const std::vector<double>& present_slo_s() const { return slo_s_; }
  /// Number of events accepted so far.
  std::size_t accepted() const { return accepted_; }

 private:
  std::vector<models::ModelId> present_;
  std::vector<double> slo_s_;
  /// Per-board health keyed by board index (the scenario layer does not
  /// know the fleet size): 'F' = failed, 'T' = throttled, absent = healthy.
  std::map<std::size_t, char> board_state_;
  double last_time_s_ = 0.0;
  std::size_t accepted_ = 0;
};

/// A validated arrival/departure script over the model zoo.
///
/// Invariants (enforced at construction through ScenarioValidator,
/// std::invalid_argument on breach):
/// timestamps are non-negative and non-decreasing, a model arrives only
/// while absent and departs only while present (mixes stay duplicate-free,
/// mirroring the embedding tensor's one-column-per-model layout), and the
/// concurrent mix never exceeds the dataset size. The mix MAY become empty
/// mid-scenario; the serving runtime records such epochs as idle.
class Scenario {
 public:
  Scenario() = default;
  explicit Scenario(std::vector<ScenarioEvent> events);

  const std::vector<ScenarioEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// The concurrent mix in effect after replaying events [0, event_index]
  /// (arrival order preserved; departures close ranks).
  Workload mix_after(std::size_t event_index) const;

  /// Per-stream latency SLOs (seconds, 0 = none) aligned with
  /// mix_after(event_index): entry d is the SLO the d-th present stream
  /// arrived with. This is what core::ServingRuntime hands the scheduler
  /// through ScheduleContext::slo_s.
  std::vector<double> slo_after(std::size_t event_index) const;

  /// True when any arrival carries a latency SLO.
  bool has_slos() const;

  /// True when the scenario carries any fail/throttle/recover event.
  bool has_faults() const;

  /// Largest board index any fault event references plus one (0 for
  /// fault-free scenarios) — the minimum fleet size that can replay this
  /// scenario.
  std::size_t fault_board_span() const;

  /// Largest concurrent mix size reached over the scenario (fault events
  /// never change the mix).
  std::size_t peak_concurrency() const;

  /// Human-readable one-line summary, e.g. "8 events / 12.4 s / peak 4".
  std::string describe() const;

  bool operator==(const Scenario& rhs) const { return events_ == rhs.events_; }
  bool operator!=(const Scenario& rhs) const { return !(*this == rhs); }

 private:
  std::vector<ScenarioEvent> events_;
};

/// Knobs of the seeded scenario generator.
struct ScenarioConfig {
  std::size_t events = 8;          ///< total arrive/depart events
  std::size_t min_concurrent = 1;  ///< departures never drop the mix below
  std::size_t max_concurrent = 4;  ///< arrivals never grow the mix beyond
  /// Chance of drawing a departure when both kinds are legal. Higher values
  /// mean shorter-lived streams, i.e. more churn per unit time.
  double depart_bias = 0.4;
  /// Mean of the exponential inter-event gap (the first event fires at 0).
  double mean_interarrival_s = 5.0;
  /// Latency-SLO band: each arrival carries an SLO with probability
  /// slo_fraction, drawn uniformly from [slo_min_ms, slo_max_ms]. The
  /// default 0 draws nothing from the Rng, so pre-SLO configs reproduce
  /// their scenarios bit-for-bit (pinned by tests/scenario_test.cpp).
  double slo_fraction = 0.0;
  double slo_min_ms = 50.0;
  double slo_max_ms = 500.0;
};

/// Draws a random scenario from \p rng. The draw sequence depends only on
/// the Rng stream and the config, so `Rng(util::fork_stream(seed, i))`
/// reproduces scenario i of a sweep bit-for-bit regardless of what else ran.
/// The first event is always an arrival at t = 0.
Scenario random_scenario(util::Rng& rng, const ScenarioConfig& config = {});

/// Parses one event clause — the body of a trace line after `at <time>`,
/// e.g. "arrive VGG-19 slo 120" or "throttle board 0 0.5" — into a
/// ScenarioEvent stamped with \p time_s. This is THE command grammar: the
/// trace parser and the serving daemon's wire protocol both call it, so a
/// command the daemon accepts is by construction a clause the trace format
/// round-trips. Trailing `#` comments are ignored. Throws
/// std::invalid_argument (no line prefix — callers add their own context).
ScenarioEvent parse_event_clause(const std::string& clause, double time_s);

/// Inverse of parse_event_clause: the clause body of one event, without the
/// `at <time> ` prefix. SLO/throttle values print with "%.17g" so they
/// round-trip bit-exactly.
std::string serialize_event_clause(const ScenarioEvent& e);

/// The first line of every serialized trace (newline included).
extern const char kScenarioTraceHeader[];

/// One trace line: `at <time> ` + serialize_event_clause(e) + '\n', the
/// time printed with "%.17g". serialize_scenario is the header followed by
/// one such line per event, so a writer that appends lines to a file holding
/// the header produces the identical bytes.
std::string serialize_event_line(const ScenarioEvent& e);

/// Writes the text trace form shown in the file header. Timestamps (and SLO
/// values) are printed with "%.17g" so parse_scenario round-trips them
/// bit-exactly; events without an SLO omit the `slo` clause entirely, so
/// pre-SLO scenarios serialize byte-identically to the v1 format.
std::string serialize_scenario(const Scenario& scenario);

/// Parses the text trace format: one
/// `at <time> <arrive|depart> <model> [slo <ms>]` or
/// `at <time> <fail|recover> board <index>` or
/// `at <time> throttle board <index> <factor>` statement per line; blank
/// lines and `#` comments are ignored. Model names go through
/// models::parse_model_name (case-insensitive, dash-tolerant). The `slo`
/// clause is legal on arrivals only.
/// Throws std::invalid_argument on malformed lines or invariant breaches.
Scenario parse_scenario(std::istream& in);
Scenario parse_scenario(const std::string& text);

/// File convenience wrappers around the trace format.
Scenario load_scenario_file(const std::string& path);
void save_scenario_file(const Scenario& scenario, const std::string& path);

}  // namespace omniboost::workload
