#include "acasx/horizontal.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "util/expect.h"

namespace cav::acasx {
namespace {

/// Own-ship displacement over one step while turning at rate omega
/// (exact arc; straight-line limit for |omega| ~ 0).
void own_displacement(double speed, double omega, double dt, double& ox, double& oy) {
  if (std::abs(omega) < 1e-9) {
    ox = speed * dt;
    oy = 0.0;
    return;
  }
  ox = speed / omega * std::sin(omega * dt);
  oy = speed / omega * (1.0 - std::cos(omega * dt));
}

/// Rotate (x, y) by angle a (CCW).
void rotate(double a, double& x, double& y) {
  const double c = std::cos(a);
  const double s = std::sin(a);
  const double nx = c * x - s * y;
  const double ny = s * x + c * y;
  x = nx;
  y = ny;
}

/// 5-point sigma sampling of isotropic 2-D velocity noise: matches the
/// per-axis variance (sigma^2) with spread s = sigma * sqrt(3).
struct VelNoise {
  double dx;
  double dy;
  double weight;
};

std::array<VelNoise, 5> velocity_noise(double sigma, double dt) {
  const double s = sigma * dt * std::sqrt(3.0);
  if (sigma <= 0.0) {
    return {{{0.0, 0.0, 1.0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}, {0, 0, 0}}};
  }
  return {{{0.0, 0.0, 1.0 / 3.0},
           {+s, 0.0, 1.0 / 6.0},
           {-s, 0.0, 1.0 / 6.0},
           {0.0, +s, 1.0 / 6.0},
           {0.0, -s, 1.0 / 6.0}}};
}

}  // namespace

const char* turn_advisory_name(TurnAdvisory a) {
  switch (a) {
    case TurnAdvisory::kStraight: return "STRAIGHT";
    case TurnAdvisory::kTurnLeft: return "TURN-L";
    case TurnAdvisory::kTurnRight: return "TURN-R";
  }
  return "?";
}

double turn_rate_of(TurnAdvisory a, double turn_rate_rad_s) {
  switch (a) {
    case TurnAdvisory::kStraight: return 0.0;
    case TurnAdvisory::kTurnLeft: return +turn_rate_rad_s;
    case TurnAdvisory::kTurnRight: return -turn_rate_rad_s;
  }
  return 0.0;
}

HorizontalConfig HorizontalConfig::coarse() {
  HorizontalConfig c;
  // Step 200 m keeps the conflict disk resolvable; the radius shrinks to
  // 150 m so grid vertices adjacent to the disk stay outside it and the
  // turn-vs-straight gradient survives interpolation.
  c.x_m = UniformAxis(-1600.0, 1600.0, 17);
  c.y_m = UniformAxis(-1600.0, 1600.0, 17);
  c.rvx_mps = UniformAxis(-60.0, 60.0, 21);  // step 6: resolves slow closures
  c.rvy_mps = UniformAxis(-60.0, 60.0, 21);
  c.conflict_radius_m = 150.0;
  c.max_iterations = 150;
  return c;
}

HorizontalTable::HorizontalTable(const HorizontalConfig& config)
    : config_(config), grid_({config.x_m, config.y_m, config.rvx_mps, config.rvy_mps}) {
  q_.assign(grid_.size() * kNumTurnAdvisories, 0.0F);
}

bool HorizontalTable::in_conflict(double dx_m, double dy_m) const {
  return std::hypot(dx_m, dy_m) <= config_.conflict_radius_m;
}

std::array<double, kNumTurnAdvisories> HorizontalTable::action_costs(double dx_m, double dy_m,
                                                                     double rvx_mps,
                                                                     double rvy_mps) const {
  expect(!(std::isnan(dx_m) || std::isnan(dy_m) || std::isnan(rvx_mps) || std::isnan(rvy_mps)),
         "horizontal query has no NaN field");
  GridVertexWeight vertices[std::size_t{1} << 4];
  const std::size_t count = grid_.scatter_into({dx_m, dy_m, rvx_mps, rvy_mps}, vertices);
  std::array<double, kNumTurnAdvisories> costs{};
  for (std::size_t a = 0; a < kNumTurnAdvisories; ++a) {
    double acc = 0.0;
    for (std::size_t v = 0; v < count; ++v) {
      acc += vertices[v].weight *
             static_cast<double>(q_[vertices[v].flat * kNumTurnAdvisories + a]);
    }
    costs[a] = acc;
  }
  return costs;
}

HorizontalTable solve_horizontal_table(const HorizontalConfig& config, ThreadPool* pool,
                                       HorizontalSolveStats* stats) {
  const auto t0 = std::chrono::steady_clock::now();
  HorizontalTable table(config);
  const GridN<4>& grid = table.grid();
  const std::size_t n = grid.size();
  const auto noise = velocity_noise(config.accel_noise_mps2, config.dt_s);

  std::vector<float> v(n, 0.0F);
  std::vector<float> v_next(n, 0.0F);

  // Initialize conflict values.
  for (std::size_t flat = 0; flat < n; ++flat) {
    const auto idx = grid.unflatten(flat);
    const double dx = config.x_m.value(idx[0]);
    const double dy = config.y_m.value(idx[1]);
    if (table.in_conflict(dx, dy)) v[flat] = static_cast<float>(config.conflict_cost);
  }

  const double dt = config.dt_s;
  const double so = config.own_speed_mps;

  const auto update_state = [&](std::size_t flat) {
    const auto idx = grid.unflatten(flat);
    const double dx = config.x_m.value(idx[0]);
    const double dy = config.y_m.value(idx[1]);
    const double rvx = config.rvx_mps.value(idx[2]);
    const double rvy = config.rvy_mps.value(idx[3]);

    if (table.in_conflict(dx, dy)) {
      for (std::size_t a = 0; a < kNumTurnAdvisories; ++a) {
        table.at(flat, static_cast<TurnAdvisory>(a)) = static_cast<float>(config.conflict_cost);
      }
      v_next[flat] = static_cast<float>(config.conflict_cost);
      return;
    }

    double best = std::numeric_limits<double>::infinity();
    for (std::size_t ai = 0; ai < kNumTurnAdvisories; ++ai) {
      const auto action = static_cast<TurnAdvisory>(ai);
      const double omega = turn_rate_of(action, config.turn_rate_rad_s);
      const double alpha = omega * dt;  // own heading change this step

      // Relative displacement: the intruder moves by (rv + vo) * dt in the
      // old frame while the own-ship traces its arc.
      double arc_x = 0.0;
      double arc_y = 0.0;
      own_displacement(so, omega, dt, arc_x, arc_y);
      double dpx = dx + (rvx + so) * dt - arc_x;
      double dpy = dy + rvy * dt - arc_y;
      rotate(-alpha, dpx, dpy);

      // Relative velocity after the own velocity rotates with the turn:
      // rv' = R(-alpha) (rv + vo) - vo, with vo = (so, 0) in body coords.
      double rvx_new = rvx + so;
      double rvy_new = rvy;
      rotate(-alpha, rvx_new, rvy_new);
      rvx_new -= so;

      double expected = 0.0;
      for (const VelNoise& nz : noise) {
        if (nz.weight == 0.0) continue;
        expected += nz.weight *
                    grid.interpolate(v, {dpx, dpy, rvx_new + nz.dx, rvy_new + nz.dy});
      }

      const double step_cost =
          action == TurnAdvisory::kStraight ? -config.straight_reward : config.turn_cost;
      const double q = step_cost + config.discount * expected;
      table.at(flat, action) = static_cast<float>(q);
      best = std::min(best, q);
    }
    v_next[flat] = static_cast<float>(best);
  };

  std::size_t iterations = 0;
  double residual = 0.0;
  for (std::size_t it = 0; it < config.max_iterations; ++it) {
    if (pool != nullptr) {
      // Range-based dispatch: one closure call per chunk, not per state.
      pool->parallel_for_ranges(n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t flat = begin; flat < end; ++flat) update_state(flat);
      });
    } else {
      for (std::size_t flat = 0; flat < n; ++flat) update_state(flat);
    }
    residual = 0.0;
    for (std::size_t flat = 0; flat < n; ++flat) {
      residual =
          std::max(residual, std::abs(static_cast<double>(v_next[flat]) - v[flat]));
    }
    v.swap(v_next);
    iterations = it + 1;
    if (residual <= config.tolerance) break;
  }

  if (stats != nullptr) {
    stats->states = n;
    stats->iterations = iterations;
    stats->residual = residual;
    stats->wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return table;
}

HorizontalLogic::HorizontalLogic(std::shared_ptr<const HorizontalTable> table)
    : table_(std::move(table)) {
  expect(table_ != nullptr, "horizontal table provided");
  last_costs_.fill(0.0);
}

TurnAdvisory HorizontalLogic::decide(const AircraftTrack& own, const AircraftTrack& intruder) {
  const double own_speed = std::hypot(own.velocity_mps.x, own.velocity_mps.y);
  if (own_speed < 1e-6) {
    current_ = TurnAdvisory::kStraight;
    return current_;
  }
  const double psi_own = std::atan2(own.velocity_mps.y, own.velocity_mps.x);

  double dx = intruder.position_m.x - own.position_m.x;
  double dy = intruder.position_m.y - own.position_m.y;
  const auto& cfg = table_->config();
  if (std::abs(dx) > cfg.x_m.hi() * 1.5 || std::abs(dy) > cfg.y_m.hi() * 1.5) {
    // Far outside the solved region: no horizontal threat worth a turn.
    current_ = TurnAdvisory::kStraight;
    last_costs_.fill(0.0);
    return current_;
  }
  double rvx = intruder.velocity_mps.x - own.velocity_mps.x;
  double rvy = intruder.velocity_mps.y - own.velocity_mps.y;
  rotate(-psi_own, dx, dy);
  rotate(-psi_own, rvx, rvy);

  last_costs_ = table_->action_costs(dx, dy, rvx, rvy);

  const double best = *std::min_element(last_costs_.begin(), last_costs_.end());
  const std::array<TurnAdvisory, kNumTurnAdvisories + 1> preference{
      current_, TurnAdvisory::kStraight, TurnAdvisory::kTurnLeft, TurnAdvisory::kTurnRight};
  constexpr double kTieEps = 1e-9;
  for (const TurnAdvisory a : preference) {
    if (last_costs_[static_cast<std::size_t>(a)] <= best + kTieEps) {
      current_ = a;
      return current_;
    }
  }
  current_ = TurnAdvisory::kStraight;
  return current_;
}

}  // namespace cav::acasx
