// Solver tests on hand-solvable MDPs: a deterministic chain, a two-action
// risk/reward choice, and a stochastic coin-flip walk.  Cross-checks value
// iteration, finite-horizon backward induction, and policy iteration
// against each other and against closed forms.
#include "mdp/mdp.h"

#include <gtest/gtest.h>

#include <cmath>

#include "mdp/policy_iteration.h"
#include "mdp/value_iteration.h"
#include "util/expect.h"

namespace cav::mdp {
namespace {

/// States 0..n; deterministic step right with cost 1; state n terminal.
class ChainMdp final : public FiniteMdp {
 public:
  explicit ChainMdp(std::size_t n) : n_(n) {}
  std::size_t num_states() const override { return n_ + 1; }
  std::size_t num_actions() const override { return 1; }
  double cost(State, Action) const override { return 1.0; }
  void transitions(State s, Action, std::vector<Transition>& out) const override {
    out.push_back({static_cast<State>(s + 1), 1.0});
  }
  bool is_terminal(State s) const override { return s == n_; }
  double terminal_cost(State) const override { return 5.0; }

 private:
  std::size_t n_;
};

/// Two actions from state 0: "safe" -> terminal 1 (cost 1), "risky" ->
/// 50/50 terminal 1 (cost 0) or terminal 2 with terminal cost 10.
class ChoiceMdp final : public FiniteMdp {
 public:
  std::size_t num_states() const override { return 3; }
  std::size_t num_actions() const override { return 2; }
  double cost(State, Action a) const override { return a == 0 ? 1.0 : 0.0; }
  void transitions(State, Action a, std::vector<Transition>& out) const override {
    if (a == 0) {
      out.push_back({1, 1.0});
    } else {
      out.push_back({1, 0.5});
      out.push_back({2, 0.5});
    }
  }
  bool is_terminal(State s) const override { return s != 0; }
  double terminal_cost(State s) const override { return s == 2 ? 10.0 : 0.0; }
};

/// Self-loop with escape: action 0 loops (cost 1, stays with prob p), so
/// with discount g the value solves V = 1 + g*p*V  =>  V = 1/(1 - g*p).
class LoopMdp final : public FiniteMdp {
 public:
  explicit LoopMdp(double p) : p_(p) {}
  std::size_t num_states() const override { return 2; }
  std::size_t num_actions() const override { return 1; }
  double cost(State, Action) const override { return 1.0; }
  void transitions(State, Action, std::vector<Transition>& out) const override {
    out.push_back({0, p_});
    out.push_back({1, 1.0 - p_});
  }
  bool is_terminal(State s) const override { return s == 1; }

 private:
  double p_;
};

TEST(ValueIteration, ChainHasAdditiveCosts) {
  const ChainMdp chain(5);
  const auto result = solve_value_iteration(chain);
  EXPECT_TRUE(result.converged);
  // V(s) = (steps to go) * 1 + terminal 5.
  for (std::size_t s = 0; s <= 5; ++s) {
    EXPECT_NEAR(result.values[s], static_cast<double>(5 - s) + 5.0, 1e-9) << "state " << s;
  }
}

TEST(ValueIteration, ChainConvergesInDepthIterations) {
  const ChainMdp chain(7);
  const auto result = solve_value_iteration(chain);
  EXPECT_LE(result.iterations, 9U);
}

TEST(ValueIteration, ChoicePicksCheaperExpectedCost) {
  const ChoiceMdp mdp;
  const auto result = solve_value_iteration(mdp);
  // Q(safe) = 1, Q(risky) = 0.5 * 10 = 5 -> safe.
  EXPECT_NEAR(result.q.at(0, 0), 1.0, 1e-9);
  EXPECT_NEAR(result.q.at(0, 1), 5.0, 1e-9);
  EXPECT_EQ(result.policy[0], 0);
  EXPECT_NEAR(result.values[0], 1.0, 1e-9);
}

TEST(ValueIteration, TerminalValuesFixed) {
  const ChoiceMdp mdp;
  const auto result = solve_value_iteration(mdp);
  EXPECT_DOUBLE_EQ(result.values[1], 0.0);
  EXPECT_DOUBLE_EQ(result.values[2], 10.0);
}

TEST(ValueIteration, DiscountedLoopClosedForm) {
  const double p = 0.9;
  const double g = 0.95;
  const LoopMdp mdp(p);
  ValueIterationConfig config;
  config.discount = g;
  config.tolerance = 1e-12;
  config.max_iterations = 100000;
  const auto result = solve_value_iteration(mdp, config);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.values[0], 1.0 / (1.0 - g * p), 1e-6);
}

TEST(ValueIteration, UndiscountedLoopHitsIterationCap) {
  // Undiscounted self-loop with positive cost diverges; the solver must
  // stop at max_iterations and report non-convergence rather than hang.
  const LoopMdp mdp(1.0);
  ValueIterationConfig config;
  config.max_iterations = 50;
  const auto result = solve_value_iteration(mdp, config);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 50U);
}

TEST(FiniteHorizon, StageZeroIsTerminalOnly) {
  const ChoiceMdp mdp;
  const auto stages = solve_finite_horizon(mdp, 3);
  EXPECT_DOUBLE_EQ(stages[0][0], 0.0);   // non-terminal: no cost yet
  EXPECT_DOUBLE_EQ(stages[0][2], 10.0);  // terminal cost
}

TEST(FiniteHorizon, ChainValuesGrowWithHorizon) {
  const ChainMdp chain(10);
  const auto stages = solve_finite_horizon(chain, 4);
  // From state 0 with t steps available: t * step cost (never reaches the
  // terminal in 4 steps from state 0, so no terminal contribution).
  EXPECT_NEAR(stages[1][0], 1.0, 1e-9);
  EXPECT_NEAR(stages[4][0], 4.0, 1e-9);
  // From state 7, 4 steps reach the terminal at depth 3: 3 steps + 5.
  EXPECT_NEAR(stages[4][7], 3.0 + 5.0, 1e-9);
}

TEST(FiniteHorizon, MatchesInfiniteHorizonOnEpisodicModel) {
  const ChainMdp chain(5);
  const auto stages = solve_finite_horizon(chain, 6);
  const auto vi = solve_value_iteration(chain);
  for (std::size_t s = 0; s <= 5; ++s) {
    EXPECT_NEAR(stages[6][s], vi.values[s], 1e-9);
  }
}

TEST(PolicyIteration, AgreesWithValueIteration) {
  const ChoiceMdp mdp;
  const auto pi = solve_policy_iteration(mdp);
  const auto vi = solve_value_iteration(mdp);
  EXPECT_TRUE(pi.converged);
  EXPECT_EQ(pi.policy[0], vi.policy[0]);
  EXPECT_NEAR(pi.values[0], vi.values[0], 1e-6);
}

TEST(PolicyIteration, ChainValues) {
  const ChainMdp chain(4);
  const auto pi = solve_policy_iteration(chain);
  EXPECT_TRUE(pi.converged);
  for (std::size_t s = 0; s <= 4; ++s) {
    EXPECT_NEAR(pi.values[s], static_cast<double>(4 - s) + 5.0, 1e-6);
  }
}

TEST(GreedyPolicy, PicksArgmin) {
  QTable q;
  q.num_actions = 3;
  q.q = {5.0, 2.0, 7.0,   // state 0 -> action 1
         1.0, 1.5, 0.5};  // state 1 -> action 2
  const Policy p = greedy_policy(q, 2);
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[1], 2);
}

TEST(GreedyPolicy, TiesBreakTowardLowestActionIndex) {
  // Documented contract: among equal-cost actions the lowest index wins,
  // so compiled/virtual and serial/parallel sweeps emit identical tables.
  QTable q;
  q.num_actions = 3;
  q.q = {2.0, 2.0, 2.0,   // full three-way tie -> action 0
         4.0, 1.0, 1.0,   // tie between 1 and 2 -> action 1
         0.5, 0.5, 0.0};  // unique minimum last -> action 2
  const Policy p = greedy_policy(q, 3);
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[1], 1);
  EXPECT_EQ(p[2], 2);
}

TEST(Backup, ComputesExpectedCost) {
  const ChoiceMdp mdp;
  Values values{0.0, 0.0, 10.0};
  std::vector<Transition> scratch;
  EXPECT_NEAR(backup(mdp, 0, 1, values, 1.0, scratch), 5.0, 1e-12);
  EXPECT_NEAR(backup(mdp, 0, 1, values, 0.5, scratch), 2.5, 1e-12);
}

TEST(Solvers, RejectDegenerateConfig) {
  const ChainMdp chain(3);
  ValueIterationConfig bad;
  bad.discount = 0.0;
  EXPECT_THROW(solve_value_iteration(chain, bad), ContractViolation);
  bad.discount = 1.5;
  EXPECT_THROW(solve_value_iteration(chain, bad), ContractViolation);
}

}  // namespace
}  // namespace cav::mdp
