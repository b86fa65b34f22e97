// Randomized MDP solver cross-validation: generate random layered
// (episodic) MDPs and demand that every solver agrees — value iteration,
// policy iteration, and finite-horizon backward induction all
// characterize the same optimum.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mdp/mdp.h"
#include "mdp/policy_iteration.h"
#include "mdp/value_iteration.h"
#include "util/rng.h"

namespace cav::mdp {
namespace {

/// A random layered MDP: `layers` layers of `width` states; transitions go
/// strictly to the next layer (so episodes terminate in `layers` steps),
/// with random sparse distributions and random costs in [-5, 10].
class RandomLayeredMdp final : public FiniteMdp {
 public:
  RandomLayeredMdp(std::size_t layers, std::size_t width, std::size_t actions,
                   std::uint64_t seed)
      : layers_(layers), width_(width), actions_(actions) {
    RngStream rng(seed);
    costs_.resize(num_states() * actions_);
    for (auto& c : costs_) c = rng.uniform(-5.0, 10.0);
    terminal_costs_.resize(width_);
    for (auto& c : terminal_costs_) c = rng.uniform(0.0, 100.0);

    transitions_.resize((num_states() - width_) * actions_);
    for (std::size_t s = 0; s < num_states() - width_; ++s) {
      const std::size_t layer = s / width_;
      for (std::size_t a = 0; a < actions_; ++a) {
        auto& dist = transitions_[s * actions_ + a];
        const int branches = rng.uniform_int(1, 3);
        double remaining = 1.0;
        for (int b = 0; b < branches; ++b) {
          const double p = (b == branches - 1) ? remaining : remaining * rng.uniform(0.2, 0.8);
          const auto next_in_layer = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(width_) - 1));
          dist.push_back({static_cast<State>((layer + 1) * width_ + next_in_layer), p});
          remaining -= p;
        }
      }
    }
  }

  std::size_t num_states() const override { return (layers_ + 1) * width_; }
  std::size_t num_actions() const override { return actions_; }
  double cost(State s, Action a) const override {
    return costs_[static_cast<std::size_t>(s) * actions_ + a];
  }
  void transitions(State s, Action a, std::vector<Transition>& out) const override {
    const auto& dist = transitions_[static_cast<std::size_t>(s) * actions_ + a];
    out.insert(out.end(), dist.begin(), dist.end());
  }
  bool is_terminal(State s) const override {
    return static_cast<std::size_t>(s) >= layers_ * width_;
  }
  double terminal_cost(State s) const override {
    return terminal_costs_[static_cast<std::size_t>(s) - layers_ * width_];
  }

  std::size_t depth() const { return layers_; }

 private:
  std::size_t layers_;
  std::size_t width_;
  std::size_t actions_;
  std::vector<double> costs_;
  std::vector<double> terminal_costs_;
  std::vector<std::vector<Transition>> transitions_;
};

class RandomMdpTest : public ::testing::TestWithParam<int> {
 protected:
  RandomLayeredMdp make_mdp() const {
    const auto seed = static_cast<std::uint64_t>(GetParam());
    RngStream rng(seed * 77);
    const auto layers = static_cast<std::size_t>(rng.uniform_int(2, 6));
    const auto width = static_cast<std::size_t>(rng.uniform_int(2, 8));
    const auto actions = static_cast<std::size_t>(rng.uniform_int(1, 4));
    return RandomLayeredMdp(layers, width, actions, seed);
  }
};

TEST_P(RandomMdpTest, TransitionsAreDistributions) {
  const auto mdp = make_mdp();
  std::vector<Transition> out;
  for (std::size_t s = 0; s < mdp.num_states(); ++s) {
    if (mdp.is_terminal(static_cast<State>(s))) continue;
    for (std::size_t a = 0; a < mdp.num_actions(); ++a) {
      out.clear();
      mdp.transitions(static_cast<State>(s), static_cast<Action>(a), out);
      double sum = 0.0;
      for (const auto& t : out) {
        ASSERT_GT(t.prob, 0.0);
        ASSERT_LT(t.next, mdp.num_states());
        sum += t.prob;
      }
      ASSERT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST_P(RandomMdpTest, PolicyIterationMatchesValueIteration) {
  const auto mdp = make_mdp();
  const auto vi = solve_value_iteration(mdp);
  const auto pi = solve_policy_iteration(mdp);
  ASSERT_TRUE(pi.converged);
  for (std::size_t s = 0; s < mdp.num_states(); ++s) {
    ASSERT_NEAR(vi.values[s], pi.values[s], 1e-6) << "state " << s;
  }
}

TEST_P(RandomMdpTest, FiniteHorizonConvergesToEpisodicOptimum) {
  const auto mdp = make_mdp();
  const auto vi = solve_value_iteration(mdp);
  const auto stages = solve_finite_horizon(mdp, mdp.depth() + 2);
  for (std::size_t s = 0; s < mdp.num_states(); ++s) {
    ASSERT_NEAR(stages.back()[s], vi.values[s], 1e-7) << "state " << s;
  }
}

TEST_P(RandomMdpTest, ValueSatisfiesBellmanOptimality) {
  const auto mdp = make_mdp();
  const auto vi = solve_value_iteration(mdp);
  std::vector<Transition> scratch;
  for (std::size_t s = 0; s < mdp.num_states(); ++s) {
    const auto state = static_cast<State>(s);
    if (mdp.is_terminal(state)) {
      ASSERT_EQ(vi.values[s], mdp.terminal_cost(state));
      continue;
    }
    double best = 1e30;
    for (std::size_t a = 0; a < mdp.num_actions(); ++a) {
      best = std::min(best, backup(mdp, state, static_cast<Action>(a), vi.values, 1.0, scratch));
    }
    ASSERT_NEAR(vi.values[s], best, 1e-7) << "Bellman residual at state " << s;
  }
}

TEST_P(RandomMdpTest, GreedyPolicyAchievesQMinimum) {
  const auto mdp = make_mdp();
  const auto vi = solve_value_iteration(mdp);
  for (std::size_t s = 0; s < mdp.num_states(); ++s) {
    if (mdp.is_terminal(static_cast<State>(s))) continue;
    const Action chosen = vi.policy[s];
    for (std::size_t a = 0; a < mdp.num_actions(); ++a) {
      ASSERT_LE(vi.q.at(static_cast<State>(s), chosen),
                vi.q.at(static_cast<State>(s), static_cast<Action>(a)) + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMdpTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace cav::mdp
