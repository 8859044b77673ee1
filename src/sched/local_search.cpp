#include "sched/local_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "util/clock.hpp"
#include "util/require.hpp"
#include "workload/generator.hpp"

namespace omniboost::sched {

using device::ComponentId;
using device::kNumComponents;

namespace {

/// A component different from \p avoid (and from \p avoid2 when possible).
ComponentId other_component(util::Rng& rng, ComponentId avoid,
                            ComponentId avoid2) {
  for (int tries = 0; tries < 16; ++tries) {
    const auto c = static_cast<ComponentId>(rng.below(kNumComponents));
    if (c != avoid && c != avoid2) return c;
  }
  // Two distinct avoids exclude at most 2 of 3 components; fall back to the
  // first one that differs from the primary avoid.
  for (std::size_t i = 0; i < kNumComponents; ++i) {
    const auto c = static_cast<ComponentId>(i);
    if (c != avoid) return c;
  }
  return avoid;  // unreachable for kNumComponents > 1
}

void write_segments(sim::Assignment& a,
                    const std::vector<sim::SegmentSpan>& segs) {
  for (const sim::SegmentSpan& s : segs) {
    for (std::size_t l = s.first; l <= s.last; ++l) a[l] = s.comp;
  }
}

/// Mutates one whole DNN's mapping within the workload.
void perturb_mapping(util::Rng& rng, sim::Mapping& m,
                     std::size_t stage_limit) {
  const std::size_t d = rng.below(m.num_dnns());
  sim::Assignment a = m.assignment(d);
  perturb_assignment(rng, a, stage_limit);
  std::vector<sim::Assignment> per_dnn = m.assignments();
  per_dnn[d] = std::move(a);
  m = sim::Mapping(std::move(per_dnn));
}

}  // namespace

void perturb_assignment(util::Rng& rng, sim::Assignment& a,
                        std::size_t stage_limit) {
  OB_REQUIRE(!a.empty(), "perturb_assignment: empty assignment");
  OB_REQUIRE(stage_limit >= 1, "perturb_assignment: bad stage limit");
  auto segs = sim::extract_segments(a);

  // Move kinds: 0 = reassign a segment's component, 1 = shift a boundary,
  // 2 = split a segment (only when below the stage cap).
  const std::size_t kind = rng.below(3);

  if (kind == 0 || (kind == 1 && segs.size() == 1) ||
      (kind == 2 && segs.size() >= stage_limit)) {
    // Reassign: pick a segment, move it to a different component. Adjacent
    // segments with the now-equal component merge implicitly, so the stage
    // count can only stay or drop.
    const std::size_t s = rng.below(segs.size());
    const ComponentId prev =
        s > 0 ? segs[s - 1].comp : segs[s].comp;
    segs[s].comp = other_component(rng, segs[s].comp, prev);
    write_segments(a, segs);
    return;
  }

  if (kind == 1) {
    // Boundary shift: move the cut between segment s and s+1 by one layer.
    // A segment shrunk to nothing disappears (a merge), never a new stage.
    const std::size_t s = rng.below(segs.size() - 1);
    sim::SegmentSpan& left = segs[s];
    sim::SegmentSpan& right = segs[s + 1];
    if (rng.chance(0.5)) {
      // Grow left into right.
      a[right.first] = left.comp;
    } else {
      // Grow right into left.
      a[left.last] = right.comp;
    }
    return;
  }

  // Split: cut one multi-layer segment in two, the suffix on a different
  // component. Only reachable when a new stage fits under the cap.
  std::vector<std::size_t> splittable;
  for (std::size_t s = 0; s < segs.size(); ++s) {
    if (segs[s].last > segs[s].first) splittable.push_back(s);
  }
  if (splittable.empty()) {
    // Nothing to split (all segments single-layer); fall back to reassign.
    const std::size_t s = rng.below(segs.size());
    segs[s].comp = other_component(rng, segs[s].comp, segs[s].comp);
    write_segments(a, segs);
    return;
  }
  const std::size_t s = splittable[rng.below(splittable.size())];
  const sim::SegmentSpan seg = segs[s];
  const std::size_t cut =
      seg.first + 1 + rng.below(seg.last - seg.first);  // in (first, last]
  const ComponentId next_comp =
      s + 1 < segs.size() ? segs[s + 1].comp : seg.comp;
  const ComponentId suffix = other_component(rng, seg.comp, next_comp);
  for (std::size_t l = cut; l <= seg.last; ++l) a[l] = suffix;
}

// --- RandomSearchScheduler ---------------------------------------------

RandomSearchScheduler::RandomSearchScheduler(std::string name,
                                             const models::ModelZoo& zoo,
                                             WorkloadEvaluatorFactory evaluator,
                                             LocalSearchConfig config)
    : name_(std::move(name)),
      zoo_(&zoo),
      factory_(std::move(evaluator)),
      config_(config) {
  OB_REQUIRE(factory_ != nullptr, "RandomSearchScheduler: null factory");
  OB_REQUIRE(config_.budget >= 1, "RandomSearchScheduler: zero budget");
}

core::ScheduleResult RandomSearchScheduler::schedule(
    const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "RandomSearchScheduler: empty workload");
  const util::PacedClock timer;
  util::Rng rng(config_.seed);
  const core::MappingEvaluator evaluate = factory_(w);

  core::ScheduleResult result;
  result.expected_reward = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < config_.budget; ++i) {
    sim::Mapping m =
        workload::random_mapping(rng, *zoo_, w, config_.stage_limit);
    const double r = evaluate(m);
    ++result.evaluations;
    if (r > result.expected_reward) {
      result.expected_reward = r;
      result.mapping = std::move(m);
    }
  }
  result.decision_seconds = timer.now_s();
  return result;
}

// --- HillClimbScheduler --------------------------------------------------

HillClimbScheduler::HillClimbScheduler(std::string name,
                                       const models::ModelZoo& zoo,
                                       WorkloadEvaluatorFactory evaluator,
                                       HillClimbConfig config)
    : name_(std::move(name)),
      zoo_(&zoo),
      factory_(std::move(evaluator)),
      config_(config) {
  OB_REQUIRE(factory_ != nullptr, "HillClimbScheduler: null factory");
  OB_REQUIRE(config_.budget >= 1, "HillClimbScheduler: zero budget");
  OB_REQUIRE(config_.stall_limit >= 1, "HillClimbScheduler: bad stall limit");
}

core::ScheduleResult HillClimbScheduler::schedule(const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "HillClimbScheduler: empty workload");
  const util::PacedClock timer;
  util::Rng rng(config_.seed);
  const core::MappingEvaluator evaluate = factory_(w);

  core::ScheduleResult result;
  result.expected_reward = -std::numeric_limits<double>::infinity();

  sim::Mapping current;
  double current_reward = 0.0;
  std::size_t stalled = config_.stall_limit;  // force initial restart

  while (result.evaluations < config_.budget) {
    if (stalled >= config_.stall_limit) {
      current = workload::random_mapping(rng, *zoo_, w, config_.stage_limit);
      current_reward = evaluate(current);
      ++result.evaluations;
      stalled = 0;
    } else {
      sim::Mapping cand = current;
      perturb_mapping(rng, cand, config_.stage_limit);
      const double r = evaluate(cand);
      ++result.evaluations;
      if (r > current_reward) {
        current = std::move(cand);
        current_reward = r;
        stalled = 0;
      } else {
        ++stalled;
      }
    }
    if (current_reward > result.expected_reward) {
      result.expected_reward = current_reward;
      result.mapping = current;
    }
  }
  result.decision_seconds = timer.now_s();
  return result;
}

// --- SimulatedAnnealingScheduler ----------------------------------------

SimulatedAnnealingScheduler::SimulatedAnnealingScheduler(
    std::string name, const models::ModelZoo& zoo,
    WorkloadEvaluatorFactory evaluator, AnnealingConfig config)
    : name_(std::move(name)),
      zoo_(&zoo),
      factory_(std::move(evaluator)),
      config_(config) {
  OB_REQUIRE(factory_ != nullptr, "SimulatedAnnealingScheduler: null factory");
  OB_REQUIRE(config_.budget >= 2, "SimulatedAnnealingScheduler: budget < 2");
  OB_REQUIRE(config_.initial_temperature > 0.0 &&
                 config_.final_temperature > 0.0 &&
                 config_.final_temperature <= config_.initial_temperature,
             "SimulatedAnnealingScheduler: bad temperature schedule");
}

core::ScheduleResult SimulatedAnnealingScheduler::schedule(
    const workload::Workload& w) {
  OB_REQUIRE(w.size() > 0, "SimulatedAnnealingScheduler: empty workload");
  const util::PacedClock timer;
  util::Rng rng(config_.seed);
  const core::MappingEvaluator evaluate = factory_(w);

  core::ScheduleResult result;

  sim::Mapping current =
      workload::random_mapping(rng, *zoo_, w, config_.stage_limit);
  double current_reward = evaluate(current);
  ++result.evaluations;
  result.mapping = current;
  result.expected_reward = current_reward;

  const std::size_t steps = config_.budget - 1;
  const double cool =
      steps > 0 ? std::pow(config_.final_temperature /
                               config_.initial_temperature,
                           1.0 / static_cast<double>(steps))
                : 1.0;
  double temperature = config_.initial_temperature;

  for (std::size_t i = 0; i < steps; ++i, temperature *= cool) {
    sim::Mapping cand = current;
    perturb_mapping(rng, cand, config_.stage_limit);
    const double r = evaluate(cand);
    ++result.evaluations;

    // Relative improvement keeps the acceptance rule scale-free: rewards
    // may be inferences/sec (oracle) or estimator units.
    const double scale = std::max({std::abs(current_reward), std::abs(r),
                                   1e-12});
    const double delta = (r - current_reward) / scale;
    if (delta >= 0.0 || rng.chance(std::exp(delta / temperature))) {
      current = std::move(cand);
      current_reward = r;
    }
    if (current_reward > result.expected_reward) {
      result.expected_reward = current_reward;
      result.mapping = current;
    }
  }
  result.decision_seconds = timer.now_s();
  return result;
}

}  // namespace omniboost::sched
