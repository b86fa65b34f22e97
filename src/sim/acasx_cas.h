// Adapter exposing the ACAS XU online logic as a simulator plug-in — the
// one table-backed collision avoidance system.  Its configuration covers
// every table-backed variant the validation compares:
//
// - the point-estimate logic (the default);
// - the QMDP belief average over the same table (`belief`; the paper's
//   §IV "should a POMDP be used?", see acasx::BeliefConfig);
// - the post-revision system (`horizontal`; acasx/horizontal.h): the
//   position-state horizontal logic covers the slow-closure blind spot
//   the GA search exposed, and commands turn rate independently of the
//   vertical channel;
// - an optional joint-threat table (`joint`; acasx/joint_table.h).
//
// Multi-threat: the table's per-threat Q-costs are exposed through the
// cost interface (evaluate_costs / commit_fused), with one track smoother
// per threat aircraft so multiple targets never share filter state.  The
// joint table answers the two-threat joint query (evaluate_joint_costs) at
// the point estimate, from the tracks this cycle's evaluate_costs calls
// already smoothed.  The pairwise decide() path and its single smoother
// are untouched — the nearest-threat policy stays bit-identical.
#pragma once

#include <memory>

#include "acasx/horizontal.h"
#include "acasx/joint_table.h"
#include "acasx/online_logic.h"
#include "sim/cas.h"
#include "sim/tracker.h"
#include "sim/uav.h"

namespace cav::sim {

/// Everything an AcasXuCas is built from besides its pairwise table.
/// Designated initializers name only what differs from the default, e.g.
/// `AcasXuCas::factory(table, {.joint = joint})`.  (Every member has a
/// default initializer, which keeps GCC's -Wmissing-field-initializers
/// quiet on such partial lists.)
struct AcasXuCasConfig {
  acasx::BeliefConfig belief{};  ///< {0, 0}: query at the point estimate
  acasx::OnlineConfig online{};
  UavPerformance perf{};
  TrackerConfig tracker{};
  /// Null: the system declines the joint query and ThreatPolicy::kJointTable
  /// degrades to kCostFused behaviour.
  std::shared_ptr<const acasx::JointLogicTable> joint = nullptr;
  /// Null: vertical channel only.  Otherwise the horizontal logic steers
  /// against decide()'s track, and under the fused policies against the
  /// most severe gated threat; a turn appends "+L"/"+R" to the label.
  std::shared_ptr<const acasx::HorizontalTable> horizontal = nullptr;
};

class AcasXuCas final : public CollisionAvoidanceSystem {
 public:
  explicit AcasXuCas(std::shared_ptr<const acasx::LogicTable> table, AcasXuCasConfig config = {});

  CasDecision decide(const acasx::AircraftTrack& own, const acasx::AircraftTrack& intruder,
                     acasx::Sense forbidden_sense) override;
  void reset() override;

  /// Multi-threat fusion covers the vertical channel (the costed advisory
  /// set, joint or pairwise); the horizontal channel keeps steering
  /// against the most severe gated threat at commit time.
  bool evaluate_costs(const acasx::AircraftTrack& own, const ThreatObservation& threat,
                      ThreatCosts* out) override;
  bool evaluate_joint_costs(const acasx::AircraftTrack& own, const ThreatObservation& primary,
                            const ThreatObservation& secondary, ThreatCosts* out) override;
  CasDecision commit_fused(const acasx::AircraftTrack& own, const ThreatObservation& primary,
                           acasx::Advisory fused) override;
  acasx::Advisory current_advisory() const override { return logic_.current_advisory(); }

  const acasx::AcasXuLogic& logic() const { return logic_; }
  /// The horizontal channel; null when built without a horizontal table.
  const acasx::HorizontalLogic* horizontal() const { return horizontal_.get(); }

  /// Factory capturing the shared table(s).  Rejects a null `table` here,
  /// not when its first agent is built.
  static CasFactory factory(std::shared_ptr<const acasx::LogicTable> table,
                            AcasXuCasConfig config = {});

 private:
  CasDecision to_decision(acasx::Advisory advisory, acasx::TurnAdvisory turn) const;

  acasx::AcasXuLogic logic_;
  /// Out of line, so the vertical-only agents of a large fleet stay small.
  std::unique_ptr<acasx::HorizontalLogic> horizontal_;
  std::shared_ptr<const acasx::JointLogicTable> joint_;
  UavPerformance perf_;
  TrackSmoother smoother_;  ///< the STM analog: smooths the intruder track
  ThreatSmootherBank threat_smoothers_;  ///< per-threat STM (fused mode)
};

}  // namespace cav::sim
