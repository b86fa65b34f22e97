// Monte-Carlo validation harness (§IV): estimate event probabilities —
// accident (NMAC) rate and alert ("false alarm" proxy) rate — by sampling
// encounters from a statistical encounter model, "the advantage of deriving
// such probabilities" that complements the GA search (which "is effective
// at fault-finding, but not at providing confirmatory evidence of
// fault-freeness", §VIII).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/fitness.h"
#include "util/stats.h"

namespace cav::core {

/// What an unequipped intruder does with itself (mixed-equipage sweeps).
enum class UnequippedBehavior {
  kPassive,        ///< flies its flight plan (the classic unequipped aircraft)
  kManeuverAtCpa,  ///< adversarial: maneuvers toward the own-ship's altitude
                   ///< in a window around its own CPA time (faults.h)
};

struct MonteCarloConfig {
  std::size_t encounters = 2000;   ///< sampled encounter geometries (>= 1)
  /// Intruders per encounter.  1 runs the paper's pairwise path (legacy
  /// geometry streams, results unchanged); K > 1 samples K intruders via
  /// encounter::MultiEncounterModel with per-intruder streams and runs the
  /// N-aircraft engine.  NMACs/separations then count own-ship pairs and
  /// alerts count any aircraft.
  std::size_t intruders = 1;
  /// max_time_s is overridden per encounter.  sim.threat_policy selects
  /// how equipped aircraft handle K > 1 traffic: kNearest (pairwise CAS vs
  /// nearest track, the PR 3 behavior), kCostFused (MultiThreatResolver
  /// arbitration over every gated threat), or kJointTable (the two most
  /// severe threats priced by the joint-threat table — the CAS factories
  /// must then carry an acasx::JointLogicTable) — the E12 density sweep
  /// compares all three under identical traffic.  sim.fault injects the
  /// fleet-wide fault profile; sim.coordination carries the loss model.
  sim::SimConfig sim;
  double sim_time_margin_s = 45.0;
  std::uint64_t seed = 99;

  // --- Mixed fleets (E14 degraded-mode axes) -------------------------
  /// Fraction of intruders carrying the intruder CAS.  Each intruder k of
  /// encounter i draws equipped/unequipped from a dedicated stream
  /// deterministic in (seed, i, k), so the equipage pattern is paired
  /// across policies and thread counts and does not perturb any other
  /// draw.  1.0 (default) equips everyone without drawing — the pre-fault
  /// path, bit-identical.
  double equipage_fraction = 1.0;
  UnequippedBehavior unequipped_behavior = UnequippedBehavior::kPassive;
  /// Per-agent fault profiles: when set, override sim.fault for the
  /// own-ship / every intruder respectively (degraded own receiver vs
  /// degraded traffic, asymmetric comms, ...).
  std::optional<sim::FaultProfile> own_fault;
  std::optional<sim::FaultProfile> intruder_fault;
};

/// Rates for one system configuration under the common traffic model.
struct SystemRates {
  std::string system;
  std::size_t encounters = 0;
  std::size_t nmacs = 0;
  std::size_t alerts = 0;            ///< encounters where either aircraft alerted
  double mean_min_separation_m = 0.0;
  /// Summed SimResult::wall_time_s over all encounters — the measured
  /// per-encounter cost sharded validation splits on (ROADMAP item 2) and
  /// the E16 scaling curve plots.  Host timing: reproducible rates, not a
  /// reproducible number.
  double sim_wall_s = 0.0;

  double mean_encounter_wall_s() const {
    return encounters ? sim_wall_s / static_cast<double>(encounters) : 0.0;
  }

  double nmac_rate() const {
    return encounters ? static_cast<double>(nmacs) / static_cast<double>(encounters) : 0.0;
  }
  double alert_rate() const {
    return encounters ? static_cast<double>(alerts) / static_cast<double>(encounters) : 0.0;
  }
  Interval nmac_ci() const { return wilson_interval(nmacs, encounters); }
  Interval alert_ci() const { return wilson_interval(alerts, encounters); }
};

/// risk_ratio's return value when the ratio is undefined because the
/// unequipped baseline recorded zero NMACs (0/0 traffic — nothing to
/// normalize against).  A negative sentinel instead of the historical
/// quiet NaN: it compares false against every threshold (NaN comparisons
/// are silently false TOO, but also poison downstream arithmetic without
/// a trace), prints recognizably, and round-trips through JSON.  Callers
/// that need the uncertainty-aware answer should use risk_ratio_wilson().
inline constexpr double kRiskRatioUndefined = -1.0;

/// Risk ratio of `system` relative to `unequipped` (the standard headline
/// metric: equipped NMAC rate / unequipped NMAC rate).  Returns
/// kRiskRatioUndefined when the baseline NMAC rate is zero.
double risk_ratio(const SystemRates& system, const SystemRates& unequipped);

/// Risk ratio with Wilson-interval awareness: the point ratio plus a
/// conservative 95% interval [lo, hi] formed from the two rates' Wilson
/// bounds (lo = sys.lo / base.hi, hi = sys.hi / base.lo).  When the
/// baseline recorded zero NMACs, `defined` is false, `ratio` is
/// kRiskRatioUndefined, and the interval is the honest [sys.lo/base.hi,
/// +inf) — the data bounds the ratio from below but not above.
struct RiskRatioEstimate {
  double ratio = kRiskRatioUndefined;
  double lo = 0.0;
  double hi = 0.0;
  bool defined = false;
};

RiskRatioEstimate risk_ratio_wilson(const SystemRates& system, const SystemRates& unequipped);

}  // namespace cav::core
