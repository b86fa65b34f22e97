// Collision-avoidance-system plug-in interface for the simulator.
//
// Each UAV carries one CollisionAvoidanceSystem instance per simulation run
// (systems are stateful: advisory memory, alert hysteresis).  Systems are
// produced by a CasFactory so that parallel fitness evaluations get
// independent instances while sharing immutable assets (the logic table).
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <string>

#include "acasx/advisory.h"
#include "acasx/online_logic.h"

namespace cav::sim {

/// The decision a system hands back to its UAV each surveillance cycle.
/// Vertical and horizontal channels are independent: a system may command
/// either, both, or neither.
struct CasDecision {
  bool maneuver = false;            ///< false -> fly free vertically
  double target_vs_mps = 0.0;       ///< commanded vertical rate when maneuvering
  double accel_mps2 = 0.0;          ///< capture acceleration
  acasx::Sense sense = acasx::Sense::kNone;  ///< announced coordination sense
  bool turn = false;                ///< horizontal channel active
  double turn_rate_rad_s = 0.0;     ///< signed commanded turn rate (CCW +)
  std::string label = "COC";        ///< human-readable advisory name
};

/// One gated threat as seen by the multi-threat arbitration layer
/// (sim/multi_threat.h): the track currently held for that aircraft, the
/// coordination constraint it last delivered on this link, and the range
/// the gate measured (so systems need not recompute it).
struct ThreatObservation {
  int aircraft_id = -1;
  acasx::AircraftTrack track;
  acasx::Sense forbidden_sense = acasx::Sense::kNone;
  double range_m = 0.0;
  /// Horizontal tau the gate measured (+inf when not converging); < 0
  /// means not yet computed (MultiThreatResolver::gate_and_sort fills it,
  /// and its consumers fall back to computing it on demand).
  double tau_s = -1.0;
  bool converging = false;
};

/// Per-advisory expected costs for one threat, evaluated at the system's
/// current advisory memory.  `active == false` means the threat is outside
/// the system's alerting envelope (non-converging, tau beyond the table
/// horizon): its costs carry no preference and must not vote.
struct ThreatCosts {
  bool active = false;
  std::array<double, acasx::kNumAdvisories> costs{};
};

class CollisionAvoidanceSystem {
 public:
  virtual ~CollisionAvoidanceSystem() = default;

  /// One surveillance cycle: own and intruder tracks (already noisy), and
  /// the coordination constraint announced by the intruder (kNone if no
  /// message was received).
  virtual CasDecision decide(const acasx::AircraftTrack& own,
                             const acasx::AircraftTrack& intruder,
                             acasx::Sense forbidden_sense) = 0;

  /// Clear internal state for a new encounter.
  virtual void reset() = 0;

  // --- Optional multi-threat cost interface ---
  //     (ThreatPolicy::kCostFused and ThreatPolicy::kJointTable)
  //
  // Table-backed systems expose their per-threat Q-costs so the resolver
  // can sum them per candidate advisory across every gated threat.  The
  // protocol per decision cycle is: evaluate_costs() exactly once per
  // gated threat (it may advance per-threat tracker state); under
  // kJointTable at most one evaluate_joint_costs() for the two most
  // severe threats (it must NOT advance tracker state — it reads the
  // tracks evaluate_costs already smoothed this cycle); then exactly one
  // commit_fused() with the advisory the resolver selected.  Systems
  // that expose only a decision keep the defaults and are arbitrated by
  // the resolver's severity-ordered fallback instead.

  /// Per-threat costs at the current advisory memory.  Returns false when
  /// the system does not support cost-level arbitration.
  virtual bool evaluate_costs(const acasx::AircraftTrack& own, const ThreatObservation& threat,
                              ThreatCosts* out) {
    (void)own;
    (void)threat;
    (void)out;
    return false;
  }

  /// Joint two-threat costs (ThreatPolicy::kJointTable): per-advisory
  /// expected costs from a table solved over the JOINT state of both
  /// threats (acasx/joint_table.h), at the current advisory memory.
  /// Returns false when the system carries no joint table; `out->active`
  /// is false when either threat is outside the joint alerting envelope —
  /// the resolver then falls back to pairwise cost fusion.  Must only be
  /// called after evaluate_costs() was called for both threats this
  /// cycle, and must not advance per-threat tracker state.
  virtual bool evaluate_joint_costs(const acasx::AircraftTrack& own,
                                    const ThreatObservation& primary,
                                    const ThreatObservation& secondary, ThreatCosts* out) {
    (void)own;
    (void)primary;
    (void)secondary;
    (void)out;
    return false;
  }

  /// Commit the fused advisory chosen by the resolver: update advisory
  /// memory and translate it into the flown command.  `primary` is the
  /// most severe gated threat (for channels that still need a single
  /// reference track, e.g. the horizontal logic).  Only called on systems
  /// whose evaluate_costs returned true this cycle.
  virtual CasDecision commit_fused(const acasx::AircraftTrack& own,
                                   const ThreatObservation& primary, acasx::Advisory fused) {
    (void)own;
    (void)primary;
    (void)fused;
    return {};
  }

  /// Advisory memory the fused selection tie-breaks against (kCoc for
  /// memoryless systems).
  virtual acasx::Advisory current_advisory() const { return acasx::Advisory::kCoc; }
};

using CasFactory = std::function<std::unique_ptr<CollisionAvoidanceSystem>()>;

/// The unequipped aircraft: never maneuvers.  The Monte-Carlo baseline and
/// the "what would have happened" reference for false-alarm accounting.
class UnequippedCas final : public CollisionAvoidanceSystem {
 public:
  CasDecision decide(const acasx::AircraftTrack&, const acasx::AircraftTrack&,
                     acasx::Sense) override {
    return {};
  }
  void reset() override {}
};

}  // namespace cav::sim
