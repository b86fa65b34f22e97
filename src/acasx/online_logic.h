// The online ACAS XU-style controller: estimates the relative encounter
// state and tau from surveillance tracks, interpolates the offline logic
// table (at the point estimate, or averaged over a measurement belief —
// see BeliefConfig), and selects the cost-minimizing advisory subject to
// coordination.
//
// This is the piece whose weaknesses the paper's GA search exposes: tau is
// estimated from horizontal range and closure rate, so a slow tail
// approach ("the relative speed is very small") yields a huge tau, the
// logic "still thinks the collision risk is low and does not emit collision
// avoidance commands" (§VII) — and a small disturbance can then collide the
// aircraft from close proximity.
#pragma once

#include <array>
#include <limits>
#include <memory>
#include <span>

#include "acasx/logic_table.h"
#include "util/vec3.h"

namespace cav::acasx {

/// Minimal surveillance picture of one aircraft (SI units; sensor noise is
/// the simulator's responsibility — this class trusts its inputs).
struct AircraftTrack {
  Vec3 position_m;   ///< ENU position, z = altitude
  Vec3 velocity_mps; ///< ENU velocity, z = vertical rate
};

/// Result of horizontal tau estimation.
struct TauEstimate {
  double tau_s = std::numeric_limits<double>::infinity();
  double range_ft = 0.0;     ///< current horizontal range
  double closure_fps = 0.0;  ///< positive when horizontally converging
  bool converging = false;   ///< false -> no horizontal conflict predicted
};

struct OnlineConfig {
  /// Horizontal range treated as "separation lost" (tau = 0 inside).
  double dmod_ft = 500.0;
  /// Closure rates below this (ft/s) are treated as non-converging — the
  /// structural cause of the paper's tail-approach blind spot.
  double min_closure_fps = 1.0;
  /// No advisory is considered beyond this tau (table horizon).
  double tau_alert_max_s = 40.0;
};

/// Measurement-uncertainty belief for the online table query — the
/// paper's §IV "Model structure" question made concrete: "Is the chosen
/// modelling technique (i.e. MDP model) impressive enough ... Or should
/// another model (e.g. a POMDP) be used?"
///
/// The point estimate treats the noisy surveillance snapshot as the true
/// state.  A nonzero sigma is the standard QMDP-style partial answer:
/// represent the measurement uncertainty as an independent Gaussian belief
/// over the noisiest state dimensions (relative altitude and intruder
/// vertical rate), and select the advisory minimizing the EXPECTED cost
/// under that belief,
///
///     a* = argmin_a  E_{x ~ belief} [ Q(x, a) ]
///
/// approximated by 3-point sigma quadrature per dimension (exact for the
/// mean and variance of the belief).  With degraded surveillance it stops
/// committing to a sense the noise cannot support (E9(g) quantifies this);
/// oversized, it washes out the alert gradient.
///
/// This is deliberately not a full POMDP solve (the offline model is
/// unchanged); it is the cheapest structurally-different online model the
/// validation framework can compare against — which is the paper's point.
/// The values are configuration (known sensor characteristics), not online
/// estimates; the default {0, 0} is the point estimate.
struct BeliefConfig {
  double h_sigma_ft = 0.0;        ///< relative-altitude uncertainty
  double dh_int_sigma_fps = 0.0;  ///< intruder vertical-rate uncertainty
};

/// Pick the cost-minimizing advisory subject to a coordination constraint,
/// breaking ties in a stable preference order (keep the current advisory,
/// then COC, then weaker before stronger) so equal-cost regions do not
/// chatter.
Advisory select_advisory(std::array<double, kNumAdvisories> costs, Sense forbidden_sense,
                         Advisory current);

class AcasXuLogic {
 public:
  /// The table is shared because every UAV agent in a simulation (and every
  /// parallel simulation in a fitness evaluation) reads the same table.
  /// `belief` at its default {0, 0} queries the table at the point estimate.
  explicit AcasXuLogic(std::shared_ptr<const LogicTable> table, OnlineConfig config = {},
                       BeliefConfig belief = {});

  /// Select the advisory for this surveillance cycle.  `forbidden_sense` is
  /// the coordination constraint received from the intruder ("do not choose
  /// maneuvers in the same direction"); kNone means unconstrained.
  Advisory decide(const AircraftTrack& own, const AircraftTrack& intruder,
                  Sense forbidden_sense = Sense::kNone);

  /// Advisory currently displayed (kCoc before the first decide()).
  Advisory current_advisory() const { return ra_; }

  /// Per-advisory costs (belief-averaged when a sigma is nonzero) against
  /// one threat at the *current* advisory memory, without advancing it —
  /// the building block of multi-threat cost fusion (sim/multi_threat.h),
  /// where several per-threat cost vectors are summed before one advisory
  /// is committed.  `active` is false when the threat is outside the
  /// alerting envelope (not converging, or tau beyond the table horizon);
  /// the costs are then all zero and carry no preference.  The span
  /// overload writes into caller storage (the allocation-free serving
  /// path); the array form wraps it.
  void peek_costs(const AircraftTrack& own, const AircraftTrack& intruder, bool* active,
                  std::span<double, kNumAdvisories> out) const;
  std::array<double, kNumAdvisories> peek_costs(const AircraftTrack& own,
                                                const AircraftTrack& intruder,
                                                bool* active) const {
    std::array<double, kNumAdvisories> costs{};
    peek_costs(own, intruder, active, costs);
    return costs;
  }

  /// Overwrite the advisory memory with an externally selected advisory
  /// (the resolver's fused choice).  The next peek_costs/decide is then
  /// conditioned on it exactly as if decide() had selected it.
  void set_advisory(Advisory a) { ra_ = a; }

  /// Forget advisory memory (new encounter).
  void reset() { ra_ = Advisory::kCoc; }

  /// Diagnostics from the last decide() call (belief-averaged costs when a
  /// sigma is nonzero).
  const TauEstimate& last_tau() const { return last_tau_; }
  const std::array<double, kNumAdvisories>& last_costs() const { return last_costs_; }

  /// Horizontal tau estimation, exposed for tests and baselines.
  static TauEstimate estimate_tau(const AircraftTrack& own, const AircraftTrack& intruder,
                                  const OnlineConfig& config);

  const LogicTable& table() const { return *table_; }
  const OnlineConfig& config() const { return config_; }

 private:
  /// One node of the belief quadrature: offsets added to the measured
  /// relative altitude and intruder vertical rate, and its weight.
  struct SigmaPoint {
    double h_offset_ft;
    double dh_int_offset_fps;
    double weight;
  };
  /// The belief quadrature, precomputed at construction: 3 x 3 points, 3
  /// when one sigma is 0, and the point estimate (one node of weight 1)
  /// when both are.
  struct SigmaPoints {
    std::array<SigmaPoint, 9> points{};
    std::size_t size = 0;
  };
  /// Frees a logic's own quadrature, never the shared point estimate.
  struct SigmaPointsDeleter {
    void operator()(const SigmaPoints* points) const;
  };
  /// The one point-estimate quadrature that every zero-sigma logic shares.
  static const SigmaPoints* point_estimate();

  /// The tau gate and the sigma-point table query behind both peek_costs
  /// and decide: writes `*tau`, and returns false (costs all zero) when
  /// the threat is outside the alerting envelope.
  bool gated_costs(const AircraftTrack& own, const AircraftTrack& intruder, TauEstimate* tau,
                   std::span<double, kNumAdvisories> out) const;

  std::shared_ptr<const LogicTable> table_;
  OnlineConfig config_;
  /// Points at point_estimate() when both sigmas are 0, so a point-estimate
  /// logic (every agent of a campaign or a city fleet) allocates nothing
  /// and stays small.
  std::unique_ptr<const SigmaPoints, SigmaPointsDeleter> sigma_points_;
  Advisory ra_ = Advisory::kCoc;
  TauEstimate last_tau_{};
  std::array<double, kNumAdvisories> last_costs_{};
};

}  // namespace cav::acasx
