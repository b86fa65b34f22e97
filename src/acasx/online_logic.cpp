#include "acasx/online_logic.h"

#include <algorithm>
#include <cmath>

#include "util/expect.h"
#include "util/units.h"

namespace cav::acasx {

namespace {

/// One axis of the 3-point Gauss-Hermite-style quadrature matching mean and
/// variance: offsets {-sqrt(3) s, 0, +sqrt(3) s} with weights {1/6, 2/3,
/// 1/6}, or the mean alone (weight 1) when sigma is 0.  The centre offset
/// is -0.0 because x + -0.0 == x for every x, -0.0 included.
struct QuadPoint {
  double offset;
  double weight;
};

std::size_t quadrature(double sigma, std::array<QuadPoint, 3>* points) {
  if (sigma <= 0.0) {
    (*points)[0] = {-0.0, 1.0};
    return 1;
  }
  const double spread = std::sqrt(3.0) * sigma;
  *points = {{{-spread, 1.0 / 6.0}, {-0.0, 2.0 / 3.0}, {spread, 1.0 / 6.0}}};
  return 3;
}

}  // namespace

const AcasXuLogic::SigmaPoints* AcasXuLogic::point_estimate() {
  static const SigmaPoints kPointEstimate{{{{-0.0, -0.0, 1.0}}}, 1};
  return &kPointEstimate;
}

void AcasXuLogic::SigmaPointsDeleter::operator()(const SigmaPoints* points) const {
  if (points != point_estimate()) delete points;
}

AcasXuLogic::AcasXuLogic(std::shared_ptr<const LogicTable> table, OnlineConfig config,
                         BeliefConfig belief)
    : table_(std::move(table)), config_(config) {
  expect(table_ != nullptr, "logic table provided");
  expect(belief.h_sigma_ft >= 0.0, "h_sigma_ft >= 0");
  expect(belief.dh_int_sigma_fps >= 0.0, "dh_int_sigma_fps >= 0");
  std::array<QuadPoint, 3> h_points;
  std::array<QuadPoint, 3> dh_int_points;
  const std::size_t num_h = quadrature(belief.h_sigma_ft, &h_points);
  const std::size_t num_dh_int = quadrature(belief.dh_int_sigma_fps, &dh_int_points);
  SigmaPoints sigma;
  for (std::size_t i = 0; i < num_h; ++i) {
    for (std::size_t j = 0; j < num_dh_int; ++j) {
      sigma.points[sigma.size++] = {h_points[i].offset, dh_int_points[j].offset,
                                    h_points[i].weight * dh_int_points[j].weight};
    }
  }
  sigma_points_.reset(sigma.size == 1 ? point_estimate() : new SigmaPoints(sigma));
  last_costs_.fill(0.0);
}

TauEstimate AcasXuLogic::estimate_tau(const AircraftTrack& own, const AircraftTrack& intruder,
                                      const OnlineConfig& config) {
  TauEstimate est;
  const double dx = units::m_to_ft(intruder.position_m.x - own.position_m.x);
  const double dy = units::m_to_ft(intruder.position_m.y - own.position_m.y);
  const double dvx = units::m_to_ft(intruder.velocity_mps.x - own.velocity_mps.x);
  const double dvy = units::m_to_ft(intruder.velocity_mps.y - own.velocity_mps.y);

  est.range_ft = std::hypot(dx, dy);
  if (est.range_ft <= 1e-9) {
    // Degenerate coincident horizontal position: separation already lost.
    est.closure_fps = 0.0;
    est.tau_s = 0.0;
    est.converging = true;
    return est;
  }
  // Range rate: d(range)/dt = (d . dv) / |d|; closure is its negative.
  est.closure_fps = -(dx * dvx + dy * dvy) / est.range_ft;

  if (est.range_ft <= config.dmod_ft) {
    est.tau_s = 0.0;
    est.converging = true;
    return est;
  }
  if (est.closure_fps < config.min_closure_fps) {
    // Diverging or drifting: no horizontal conflict is predicted.  This is
    // deliberate fidelity to the tau-based alerting structure — see the
    // file comment about the tail-approach blind spot.
    est.converging = false;
    return est;
  }
  est.tau_s = (est.range_ft - config.dmod_ft) / est.closure_fps;
  est.converging = true;
  return est;
}

Advisory select_advisory(std::array<double, kNumAdvisories> costs, Sense forbidden_sense,
                         Advisory current) {
  // Coordination: the intruder's announced sense is off-limits.
  if (forbidden_sense != Sense::kNone) {
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      if (sense_of(static_cast<Advisory>(a)) == forbidden_sense) {
        costs[a] = std::numeric_limits<double>::infinity();
      }
    }
  }

  const double best = *std::min_element(costs.begin(), costs.end());
  const std::array<Advisory, kNumAdvisories + 1> preference{
      current,
      Advisory::kCoc,
      Advisory::kClimb1500,
      Advisory::kDescend1500,
      Advisory::kClimb2500,
      Advisory::kDescend2500,
  };
  constexpr double kTieEps = 1e-9;
  for (const Advisory a : preference) {
    if (costs[static_cast<std::size_t>(a)] <= best + kTieEps) return a;
  }
  return Advisory::kCoc;  // unreachable: preference covers all advisories
}

bool AcasXuLogic::gated_costs(const AircraftTrack& own, const AircraftTrack& intruder,
                              TauEstimate* tau, std::span<double, kNumAdvisories> out) const {
  std::fill(out.begin(), out.end(), 0.0);
  *tau = estimate_tau(own, intruder, config_);
  if (!tau->converging || tau->tau_s > config_.tau_alert_max_s) return false;
  const double h_ft = units::m_to_ft(intruder.position_m.z - own.position_m.z);
  const double dh_own_fps = units::m_to_ft(own.velocity_mps.z);  // own state is known well
  const double dh_int_fps = units::m_to_ft(intruder.velocity_mps.z);
  std::array<double, kNumAdvisories> costs;
  for (std::size_t i = 0; i < sigma_points_->size; ++i) {
    const SigmaPoint& p = sigma_points_->points[i];
    table_->action_costs(tau->tau_s, h_ft + p.h_offset_ft, dh_own_fps,
                         dh_int_fps + p.dh_int_offset_fps, ra_, costs);
    for (std::size_t a = 0; a < kNumAdvisories; ++a) out[a] += p.weight * costs[a];
  }
  return true;
}

void AcasXuLogic::peek_costs(const AircraftTrack& own, const AircraftTrack& intruder,
                             bool* active, std::span<double, kNumAdvisories> out) const {
  TauEstimate tau;
  *active = gated_costs(own, intruder, &tau, out);
}

Advisory AcasXuLogic::decide(const AircraftTrack& own, const AircraftTrack& intruder,
                             Sense forbidden_sense) {
  ra_ = gated_costs(own, intruder, &last_tau_, last_costs_)
            ? select_advisory(last_costs_, forbidden_sense, ra_)
            : Advisory::kCoc;
  return ra_;
}

}  // namespace cav::acasx
