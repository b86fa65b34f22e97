#include "toy2d/toy2d_mdp.h"

#include <algorithm>
#include <sstream>

#include "mdp/value_iteration.h"
#include "util/expect.h"

namespace cav::toy2d {
namespace {

/// Intruder vertical displacements matching Config::intruder_probs order.
constexpr std::array<int, 5> kIntruderMoves{0, -1, +1, -2, +2};

}  // namespace

char action_glyph(Action a) {
  switch (a) {
    case Action::kLevel: return '.';
    case Action::kUp: return '^';
    case Action::kDown: return 'v';
  }
  return '?';
}

const char* action_name(Action a) {
  switch (a) {
    case Action::kLevel: return "level";
    case Action::kUp: return "up";
    case Action::kDown: return "down";
  }
  return "?";
}

Toy2dMdp::Toy2dMdp(const Config& config) : config_(config) {
  expect(config.x_max >= 1, "x_max >= 1");
  expect(config.y_max >= 1, "y_max >= 1");
  auto normalized = [](const auto& probs) {
    double sum = 0.0;
    for (const double p : probs) {
      if (p < 0.0) return false;
      sum += p;
    }
    return std::abs(sum - 1.0) < 1e-9;
  };
  expect(normalized(config.own_move_probs), "own_move_probs sum to 1");
  expect(normalized(config.own_level_probs), "own_level_probs sum to 1");
  expect(normalized(config.intruder_probs), "intruder_probs sum to 1");
}

std::size_t Toy2dMdp::num_states() const {
  const auto ny = static_cast<std::size_t>(config_.num_altitudes());
  const auto nx = static_cast<std::size_t>(config_.num_ranges());
  return ny * nx * ny;
}

mdp::State Toy2dMdp::encode(const GridState& g) const {
  const int ny = config_.num_altitudes();
  const int nx = config_.num_ranges();
  const int yo = g.y_own + config_.y_max;
  const int yi = g.y_int + config_.y_max;
  return static_cast<mdp::State>((yo * nx + g.x_rel) * ny + yi);
}

GridState Toy2dMdp::decode(mdp::State s) const {
  const int ny = config_.num_altitudes();
  const int nx = config_.num_ranges();
  GridState g;
  g.y_int = static_cast<int>(s) % ny - config_.y_max;
  const int rest = static_cast<int>(s) / ny;
  g.x_rel = rest % nx;
  g.y_own = rest / nx - config_.y_max;
  return g;
}

bool Toy2dMdp::is_collision(const GridState& g) const {
  return g.x_rel == 0 && g.y_own == g.y_int;
}

int Toy2dMdp::clamp_altitude(int y) const {
  return std::clamp(y, -config_.y_max, config_.y_max);
}

bool Toy2dMdp::is_terminal(mdp::State s) const { return decode(s).x_rel == 0; }

double Toy2dMdp::terminal_cost(mdp::State s) const {
  return is_collision(decode(s)) ? config_.collision_cost : 0.0;
}

double Toy2dMdp::cost(mdp::State, mdp::Action a) const {
  switch (static_cast<Action>(a)) {
    case Action::kLevel: return -config_.level_reward;
    case Action::kUp:
    case Action::kDown: return config_.maneuver_cost;
  }
  return 0.0;
}

void Toy2dMdp::transitions(mdp::State s, mdp::Action a, std::vector<mdp::Transition>& out) const {
  const GridState g = decode(s);
  expect(g.x_rel > 0, "transitions only defined for non-terminal states");

  // Own-ship displacement distribution for the chosen action.
  std::array<std::pair<int, double>, 3> own;
  switch (static_cast<Action>(a)) {
    case Action::kUp:
      own = {{{+1, config_.own_move_probs[0]},
              {0, config_.own_move_probs[1]},
              {-1, config_.own_move_probs[2]}}};
      break;
    case Action::kDown:
      own = {{{-1, config_.own_move_probs[0]},
              {0, config_.own_move_probs[1]},
              {+1, config_.own_move_probs[2]}}};
      break;
    case Action::kLevel:
      own = {{{0, config_.own_level_probs[0]},
              {+1, config_.own_level_probs[1]},
              {-1, config_.own_level_probs[2]}}};
      break;
  }

  // Product of the two independent displacement distributions; clamping at
  // the grid boundary can merge outcomes, so accumulate by next state.
  // 3 x 5 = 15 raw outcomes at most.
  for (const auto& [dy_own, p_own] : own) {
    if (p_own == 0.0) continue;
    for (std::size_t k = 0; k < kIntruderMoves.size(); ++k) {
      const double p = p_own * config_.intruder_probs[k];
      if (p == 0.0) continue;
      GridState next;
      next.y_own = clamp_altitude(g.y_own + dy_own);
      next.y_int = clamp_altitude(g.y_int + kIntruderMoves[k]);
      next.x_rel = g.x_rel - 1;
      const mdp::State ns = encode(next);
      auto it = std::find_if(out.begin(), out.end(),
                             [ns](const mdp::Transition& t) { return t.next == ns; });
      if (it == out.end()) {
        out.push_back({ns, p});
      } else {
        it->prob += p;
      }
    }
  }
}

PolicyTable::PolicyTable(const Toy2dMdp& model, mdp::Policy policy, mdp::Values values)
    : model_(model), policy_(std::move(policy)), values_(std::move(values)) {
  expect(policy_.size() == model_.num_states(), "policy covers the state space");
  expect(values_.size() == model_.num_states(), "values cover the state space");
}

Action PolicyTable::action_for(const GridState& g) const {
  return static_cast<Action>(policy_[model_.encode(g)]);
}

double PolicyTable::value_for(const GridState& g) const {
  return values_[model_.encode(g)];
}

std::string PolicyTable::render_slice(int y_int) const {
  const Config& c = model_.config();
  std::ostringstream out;
  out << "policy slice (intruder altitude y_i = " << y_int
      << "; rows: own altitude top=+" << c.y_max << ", cols: x_r = 0.." << c.x_max
      << "; '.'=level '^'=up 'v'=down)\n";
  for (int yo = c.y_max; yo >= -c.y_max; --yo) {
    out << (yo >= 0 ? " +" : " ") << yo << " | ";
    for (int xr = 0; xr <= c.x_max; ++xr) {
      const GridState g{yo, xr, y_int};
      if (xr == 0) {
        out << (model_.is_collision(g) ? 'X' : 'o');
      } else {
        out << action_glyph(action_for(g));
      }
    }
    out << '\n';
  }
  return out.str();
}

PolicyTable solve(const Toy2dMdp& model, ThreadPool* pool) {
  mdp::ValueIterationConfig config;
  config.discount = 1.0;  // episodic: x_r strictly decreases to the terminal layer
  config.pool = pool;
  auto result = mdp::solve_value_iteration(model, config);
  ensure(result.converged, "toy2d value iteration converged");
  return PolicyTable(model, std::move(result.policy), std::move(result.values));
}

}  // namespace cav::toy2d
