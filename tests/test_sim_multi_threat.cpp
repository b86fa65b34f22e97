// Multi-threat arbitration tests: the converging-ring gap closes under
// ThreatPolicy::kCostFused, the kNearest path stays bit-identical to the
// PR 3 engine, the resolver's gate/severity order and fused selection are
// deterministic under threat-set permutation, the blocking-set veto
// fires (and counts) on squeezed geometries, and the kJointTable policy
// routes the two most severe threats through the joint table with exact
// kCostFused fallbacks (K=1, missing table, inactive secondary).  The
// headline paired-seed ring comparison for kJointTable lives in
// test_joint_policy.cpp (slow tier — it solves the full coarse joint
// table).
#include "sim/multi_threat.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "scenarios/scenario_library.h"
#include "sim/acasx_cas.h"
#include "sim/simulation.h"
#include "util/angles.h"

namespace cav::sim {
namespace {

acasx::AircraftTrack track_at(double x, double y, double z, double vx, double vy, double vz) {
  return {{x, y, z}, {vx, vy, vz}};
}

ThreatObservation threat_at(int id, const acasx::AircraftTrack& track,
                            const acasx::AircraftTrack& own,
                            acasx::Sense forbidden = acasx::Sense::kNone) {
  ThreatObservation obs;
  obs.aircraft_id = id;
  obs.track = track;
  obs.forbidden_sense = forbidden;
  obs.range_m = distance(track.position_m, own.position_m);
  return obs;
}

/// Cost-capable stub whose per-threat costs depend only on the threat
/// identity — the fused result must then be a pure function of the threat
/// *set*, independent of presentation order.
class FakeCostCas final : public CollisionAvoidanceSystem {
 public:
  CasDecision decide(const acasx::AircraftTrack&, const acasx::AircraftTrack&,
                     acasx::Sense) override {
    return {};
  }
  void reset() override {}

  bool evaluate_costs(const acasx::AircraftTrack&, const ThreatObservation& threat,
                      ThreatCosts* out) override {
    out->active = true;
    for (std::size_t a = 0; a < acasx::kNumAdvisories; ++a) {
      // Deterministic pseudo-costs; several ids share values so ties occur.
      out->costs[a] =
          static_cast<double>(((threat.aircraft_id * 7 + static_cast<int>(a) * 13) % 5));
    }
    return true;
  }
  CasDecision commit_fused(const acasx::AircraftTrack&, const ThreatObservation&,
                           acasx::Advisory fused) override {
    committed = fused;
    CasDecision d;
    d.label = acasx::advisory_name(fused);
    d.sense = acasx::sense_of(fused);
    d.maneuver = fused != acasx::Advisory::kCoc;
    return d;
  }

  acasx::Advisory committed = acasx::Advisory::kCoc;
};

/// Decision-only stub that always commands a climb — the fallback path's
/// raw material for blocking-set veto tests.
class AlwaysClimbCas final : public CollisionAvoidanceSystem {
 public:
  CasDecision decide(const acasx::AircraftTrack&, const acasx::AircraftTrack&,
                     acasx::Sense) override {
    CasDecision d;
    d.maneuver = true;
    d.sense = acasx::Sense::kClimb;
    d.target_vs_mps = 7.62;
    d.accel_mps2 = 2.0;
    d.label = "CL1500";
    return d;
  }
  void reset() override {}
};

/// Sanitizer-affordable joint config: full 100 ft h1 resolution (the NMAC
/// band must stay resolved), minimal rate axes, a coarse secondary.  The
/// full-fidelity JointConfig::coarse() solve lives in the slow tier.
acasx::JointConfig mini_joint_config() {
  acasx::JointConfig c;
  c.space.h_ft = UniformAxis(-800.0, 800.0, 17);
  c.space.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 3);
  c.space.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 3);
  c.space.tau_max = 16;
  c.secondary.h2_ft = UniformAxis(-600.0, 600.0, 7);
  return c;
}

class MultiThreatWithTableTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    table_ = new std::shared_ptr<const acasx::LogicTable>(
        std::make_shared<const acasx::LogicTable>(
            acasx::solve_logic_table(acasx::AcasXuConfig::coarse())));
    joint_ = new std::shared_ptr<const acasx::JointLogicTable>(
        std::make_shared<const acasx::JointLogicTable>(
            acasx::solve_joint_table(mini_joint_config())));
  }
  static void TearDownTestSuite() {
    delete table_;
    delete joint_;
    table_ = nullptr;
    joint_ = nullptr;
  }
  static CasFactory equipped() { return AcasXuCas::factory(*table_); }
  static CasFactory joint_equipped() { return AcasXuCas::factory(*table_, {.joint = *joint_}); }
  static std::shared_ptr<const acasx::LogicTable>* table_;
  static std::shared_ptr<const acasx::JointLogicTable>* joint_;
};

std::shared_ptr<const acasx::LogicTable>* MultiThreatWithTableTest::table_ = nullptr;
std::shared_ptr<const acasx::JointLogicTable>* MultiThreatWithTableTest::joint_ = nullptr;

// ---------------------------------------------------------------------------
// The headline: the converging-ring gap E11 exposed closes under kCostFused.

TEST_F(MultiThreatWithTableTest, ConvergingRingK4FusedRecordsFewerNmacs) {
  // All-equipped K=4 ring (the hardest variant: every aircraft maneuvers).
  // Identical traffic and seeds under both policies — a paired comparison;
  // kCostFused must record strictly fewer own-ship NMACs than kNearest.
  const scenarios::Scenario scenario = scenarios::converging_ring(4);
  int nearest_nmacs = 0;
  int fused_nmacs = 0;
  int fused_cycles = 0;
  for (int seed = 1; seed <= 60; ++seed) {
    SimConfig config;  // default noise
    config.threat_policy = ThreatPolicy::kNearest;
    const SimResult nearest =
        scenarios::run_scenario(scenario, config, equipped(), equipped(), seed);
    if (nearest.own_nmac()) ++nearest_nmacs;

    config.threat_policy = ThreatPolicy::kCostFused;
    const SimResult fused =
        scenarios::run_scenario(scenario, config, equipped(), equipped(), seed);
    if (fused.own_nmac()) ++fused_nmacs;
    fused_cycles += fused.agents[0].resolver.fused_cycles;
  }
  EXPECT_GT(nearest_nmacs, 0) << "sanity: the ring is a real multi-threat gap";
  EXPECT_LT(fused_nmacs, nearest_nmacs);
  EXPECT_GT(fused_cycles, 0) << "the cost-fused path actually arbitrated";
}

TEST_F(MultiThreatWithTableTest, ResolverStatsAreReported) {
  const scenarios::Scenario scenario = scenarios::converging_ring(4);
  SimConfig config;
  config.threat_policy = ThreatPolicy::kCostFused;
  const SimResult r = scenarios::run_scenario(scenario, config, equipped(), equipped(), 3);
  const ResolverStats& stats = r.agents[0].resolver;
  EXPECT_GT(stats.cycles, 0);
  EXPECT_GE(stats.threats_considered, stats.cycles);
  EXPECT_EQ(stats.fused_cycles + stats.fallback_cycles, stats.cycles);
  EXPECT_LE(stats.max_threats_in_cycle, 4);
  EXPECT_GE(stats.max_threats_in_cycle, 2) << "the ring gates several threats at once";
  EXPECT_GT(stats.disagreements, 0) << "fusion departed from nearest-threat at least once";
}

// ---------------------------------------------------------------------------
// kNearest stays the PR 3 engine (bit-identity), and single-threat traffic
// is policy-invariant.

TEST_F(MultiThreatWithTableTest, NearestPolicyIsDefaultAndBitIdenticalToWrapper) {
  // The golden-value suite (test_sim_multi.cpp) pins the kNearest numbers
  // to the pre-refactor engine; here we pin that (a) the default SimConfig
  // still selects kNearest and (b) an explicit kNearest multi run equals
  // the 2-aircraft wrapper draw for draw.
  SimConfig config;
  EXPECT_EQ(config.threat_policy, ThreatPolicy::kNearest);
  config.max_time_s = 60.0;

  const auto own_state = [] {
    UavState s;
    s.position_m = {0, 0, 1000};
    s.ground_speed_mps = 40;
    s.bearing_rad = 0;
    return s;
  };
  const auto intruder_state = [] {
    UavState s;
    s.position_m = {3200, 40, 1005};
    s.ground_speed_mps = 40;
    s.bearing_rad = kPi;
    return s;
  };
  const auto make = [&](const UavState& s) {
    AgentSetup a;
    a.initial_state = s;
    a.cas = equipped()();
    return a;
  };

  const SimResult wrapper =
      run_encounter(config, make(own_state()), make(intruder_state()), 41);
  std::vector<AgentSetup> agents;
  agents.push_back(make(own_state()));
  agents.push_back(make(intruder_state()));
  const SimResult multi = run_multi_encounter(config, std::move(agents), 41);

  EXPECT_EQ(wrapper.proximity.min_distance_m, multi.proximity.min_distance_m);
  EXPECT_EQ(wrapper.agents[0].alert_cycles, multi.agents[0].alert_cycles);
  EXPECT_EQ(wrapper.agents[0].first_alert_time_s, multi.agents[0].first_alert_time_s);
  EXPECT_EQ(multi.agents[0].resolver.cycles, 0) << "kNearest never invokes the resolver";
}

TEST_F(MultiThreatWithTableTest, SingleThreatHeadOnIsPolicyInvariant) {
  // With one (benign, co-altitude head-on) threat the fused path reduces to
  // the pairwise evaluation: same tau, same costs, same selection — the
  // outcomes must match the nearest-threat run exactly.
  const scenarios::Scenario scenario = scenarios::head_on(1);
  SimConfig config;
  config.threat_policy = ThreatPolicy::kNearest;
  const SimResult nearest = scenarios::run_scenario(scenario, config, equipped(), equipped(), 9);
  config.threat_policy = ThreatPolicy::kCostFused;
  const SimResult fused = scenarios::run_scenario(scenario, config, equipped(), equipped(), 9);

  EXPECT_EQ(nearest.proximity.min_distance_m, fused.proximity.min_distance_m);
  EXPECT_EQ(nearest.agents[0].alert_cycles, fused.agents[0].alert_cycles);
  EXPECT_EQ(nearest.agents[0].first_alert_time_s, fused.agents[0].first_alert_time_s);
  EXPECT_EQ(nearest.agents[0].reversals, fused.agents[0].reversals);
  EXPECT_FALSE(fused.own_nmac());
}

// ---------------------------------------------------------------------------
// Gate and severity order.

TEST(MultiThreatResolverTest, GateDropsFarDivergingKeepsConvergingBeyondRange) {
  ThreatGateConfig gate;
  gate.range_gate_m = 2000.0;
  MultiThreatResolver resolver(gate);
  const acasx::AircraftTrack own = track_at(0, 0, 1000, 40, 0, 0);

  std::vector<ThreatObservation> threats;
  // Close and converging: kept, most severe.
  threats.push_back(threat_at(1, track_at(1000, 0, 1000, -40, 0, 0), own));
  // Far but converging fast (inside the tau gate): kept by the tau arm.
  threats.push_back(threat_at(2, track_at(4000, 0, 1000, -80, 0, 0), own));
  // Far and flying away: dropped.
  threats.push_back(threat_at(3, track_at(5000, 0, 1000, 40, 0, 0), own));
  // Close but diverging: kept by the range arm (non-converging = least
  // severe, so the CAS can still clear a previously issued advisory).
  threats.push_back(threat_at(4, track_at(1500, 200, 1000, 40, 0, 0), own));

  resolver.gate_and_sort(own, &threats);
  ASSERT_EQ(threats.size(), 3U);
  EXPECT_EQ(threats[0].aircraft_id, 1);
  EXPECT_EQ(threats[1].aircraft_id, 2);
  EXPECT_EQ(threats[2].aircraft_id, 4);
}

TEST(MultiThreatResolverTest, GateTruncatesToMaxThreatsBySeverity) {
  ThreatGateConfig gate;
  gate.max_threats = 2;
  MultiThreatResolver resolver(gate);
  const acasx::AircraftTrack own = track_at(0, 0, 1000, 40, 0, 0);

  std::vector<ThreatObservation> threats;
  for (int id = 1; id <= 5; ++id) {
    threats.push_back(
        threat_at(id, track_at(800.0 * id, 0, 1000, -40, 0, 0), own));
  }
  resolver.gate_and_sort(own, &threats);
  ASSERT_EQ(threats.size(), 2U);
  EXPECT_EQ(threats[0].aircraft_id, 1);
  EXPECT_EQ(threats[1].aircraft_id, 2);
}

// ---------------------------------------------------------------------------
// Deterministic tie-break fuzz: the fused advisory is a function of the
// threat set, not its presentation order or repetition.

TEST(MultiThreatResolverTest, FusedSelectionInvariantUnderPermutation) {
  MultiThreatResolver resolver;
  std::mt19937 rng(2016);
  std::uniform_real_distribution<double> pos(-4000.0, 4000.0);
  std::uniform_real_distribution<double> alt(-150.0, 150.0);
  std::uniform_real_distribution<double> vel(-60.0, 60.0);
  std::uniform_int_distribution<int> count(2, 6);

  for (int round = 0; round < 200; ++round) {
    const acasx::AircraftTrack own = track_at(0, 0, 1000, 40, 0, 0);
    std::vector<ThreatObservation> threats;
    const int k = count(rng);
    for (int id = 1; id <= k; ++id) {
      threats.push_back(threat_at(
          id, track_at(pos(rng), pos(rng), 1000.0 + alt(rng), vel(rng), vel(rng), 0), own));
    }

    std::vector<ThreatObservation> shuffled = threats;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    resolver.gate_and_sort(own, &threats);
    resolver.gate_and_sort(own, &shuffled);
    if (threats.empty()) continue;

    ASSERT_EQ(threats.size(), shuffled.size());
    for (std::size_t i = 0; i < threats.size(); ++i) {
      EXPECT_EQ(threats[i].aircraft_id, shuffled[i].aircraft_id) << "round " << round;
    }

    FakeCostCas a;
    FakeCostCas b;
    ResolverStats stats_a;
    ResolverStats stats_b;
    resolver.resolve(a, own, threats, &stats_a);
    resolver.resolve(b, own, shuffled, &stats_b);
    EXPECT_EQ(a.committed, b.committed) << "round " << round;
    EXPECT_EQ(stats_a.vetoes, stats_b.vetoes);
    EXPECT_EQ(stats_a.disagreements, stats_b.disagreements);

    // Re-resolving the identical set is idempotent in selection.
    FakeCostCas c;
    ResolverStats stats_c;
    resolver.resolve(c, own, threats, &stats_c);
    EXPECT_EQ(a.committed, c.committed);
  }
}

// ---------------------------------------------------------------------------
// Blocking-set veto (fallback path for decision-only systems).

TEST(MultiThreatResolverTest, FallbackVetoFlipsClimbIntoClearDescend) {
  MultiThreatResolver resolver;
  const acasx::AircraftTrack own = track_at(0, 0, 1000, 30, 0, 0);

  // Primary: co-altitude head-on at 600 m (tau ~7.5 s) — the scripted CAS
  // commands a climb against it.  Blocker: head-on at 300 m (tau ~2.5 s),
  // 20 m above: a 1500 ft/min climb ends ~1 m from it at CPA, well inside
  // the blocking band, while a descend clears everything.
  std::vector<ThreatObservation> threats;
  threats.push_back(threat_at(1, track_at(600, 0, 1000, -30, 0, 0), own));
  threats.push_back(threat_at(2, track_at(300, 10, 1020, -30, 0, 0), own));
  resolver.gate_and_sort(own, &threats);
  ASSERT_EQ(threats.size(), 2U);
  EXPECT_EQ(threats[0].aircraft_id, 2) << "the blocker is the more severe threat";

  EXPECT_TRUE(resolver.steers_into(own, acasx::Sense::kClimb, threats[0]));
  EXPECT_FALSE(resolver.steers_into(own, acasx::Sense::kDescend, threats[0]));

  // Re-order so the climb-commanding decision targets the co-altitude
  // primary and the high blocker sits second (direct resolve call).
  std::swap(threats[0], threats[1]);
  AlwaysClimbCas cas;
  ResolverStats stats;
  const CasDecision d = resolver.resolve(cas, own, threats, &stats);
  EXPECT_EQ(stats.fallback_cycles, 1);
  EXPECT_EQ(stats.vetoes, 1);
  EXPECT_EQ(d.sense, acasx::Sense::kDescend);
  EXPECT_LT(d.target_vs_mps, 0.0);
  EXPECT_NE(d.label.find("veto"), std::string::npos);
}

TEST(MultiThreatResolverTest, FallbackKeepsAdvisoryWhenBothSensesBlocked) {
  MultiThreatResolver resolver;
  const acasx::AircraftTrack own = track_at(0, 0, 1000, 30, 0, 0);

  // Squeeze: blockers just above and just below at short tau — neither
  // sense is clear, so the most severe threat's advisory stands.
  std::vector<ThreatObservation> threats;
  threats.push_back(threat_at(1, track_at(600, 0, 1000, -30, 0, 0), own));
  threats.push_back(threat_at(2, track_at(300, 10, 1020, -30, 0, 0), own));
  threats.push_back(threat_at(3, track_at(300, -10, 980, -30, 0, 0), own));

  EXPECT_TRUE(resolver.steers_into(own, acasx::Sense::kClimb, threats[1]));
  EXPECT_TRUE(resolver.steers_into(own, acasx::Sense::kDescend, threats[2]));

  AlwaysClimbCas cas;
  ResolverStats stats;
  const CasDecision d = resolver.resolve(cas, own, threats, &stats);
  EXPECT_EQ(stats.vetoes, 0);
  EXPECT_EQ(d.sense, acasx::Sense::kClimb) << "most severe threat wins the squeeze";
}

// ---------------------------------------------------------------------------
// ThreatPolicy::kJointTable: routing, fallbacks, and policy invariance.

TEST_F(MultiThreatWithTableTest, JointPolicyK1IsBitIdenticalToNearest) {
  // With a single threat the joint query never fires (it needs two gated
  // threats) and the cycle reduces to the pairwise evaluation — the K=1
  // acceptance contract: bit-identical outcomes to kNearest.
  const scenarios::Scenario scenario = scenarios::head_on(1);
  SimConfig config;
  config.threat_policy = ThreatPolicy::kNearest;
  const SimResult nearest =
      scenarios::run_scenario(scenario, config, joint_equipped(), joint_equipped(), 9);
  config.threat_policy = ThreatPolicy::kJointTable;
  const SimResult joint =
      scenarios::run_scenario(scenario, config, joint_equipped(), joint_equipped(), 9);

  EXPECT_EQ(nearest.proximity.min_distance_m, joint.proximity.min_distance_m);
  EXPECT_EQ(nearest.agents[0].alert_cycles, joint.agents[0].alert_cycles);
  EXPECT_EQ(nearest.agents[0].first_alert_time_s, joint.agents[0].first_alert_time_s);
  EXPECT_EQ(nearest.agents[0].reversals, joint.agents[0].reversals);
  EXPECT_EQ(joint.agents[0].resolver.joint_cycles, 0) << "one threat never reaches the joint table";
}

TEST_F(MultiThreatWithTableTest, JointPolicyWithoutJointTableMatchesCostFused) {
  // A CAS that carries no joint table declines every joint query, so the
  // kJointTable policy must reproduce kCostFused exactly.
  const scenarios::Scenario scenario = scenarios::converging_ring(4);
  SimConfig config;
  config.threat_policy = ThreatPolicy::kCostFused;
  const SimResult fused = scenarios::run_scenario(scenario, config, equipped(), equipped(), 7);
  config.threat_policy = ThreatPolicy::kJointTable;
  const SimResult joint = scenarios::run_scenario(scenario, config, equipped(), equipped(), 7);

  EXPECT_EQ(fused.proximity.min_distance_m, joint.proximity.min_distance_m);
  EXPECT_EQ(fused.agents[0].alert_cycles, joint.agents[0].alert_cycles);
  EXPECT_EQ(fused.agents[0].resolver.fused_cycles, joint.agents[0].resolver.fused_cycles);
  EXPECT_EQ(joint.agents[0].resolver.joint_cycles, 0);
}

TEST_F(MultiThreatWithTableTest, JointPolicyArbitratesTheRingThroughTheJointTable) {
  const scenarios::Scenario scenario = scenarios::converging_ring(4);
  SimConfig config;
  config.threat_policy = ThreatPolicy::kJointTable;
  const SimResult r =
      scenarios::run_scenario(scenario, config, joint_equipped(), joint_equipped(), 3);
  const ResolverStats& stats = r.agents[0].resolver;
  EXPECT_GT(stats.joint_cycles, 0) << "the simultaneous ring must reach the joint table";
  EXPECT_EQ(stats.fused_cycles + stats.joint_cycles + stats.fallback_cycles, stats.cycles);
}

TEST_F(MultiThreatWithTableTest, DivergingSecondaryFallsBackToPairwiseAdvisory) {
  // The marginalization contract at the resolver level: when the second
  // threat is not converging (tau = inf, kept by the range arm of the
  // gate), the joint query deactivates and the cycle must fly exactly the
  // pairwise advisory against the primary.
  MultiThreatResolver resolver;
  const acasx::AircraftTrack own = track_at(0, 0, 1000, 30, 0, 0);
  std::vector<ThreatObservation> threats;
  // Primary: converging head-on slightly above.  Secondary: close but
  // flying away (range-gated in, tau = inf).
  threats.push_back(threat_at(1, track_at(600, 0, 1012, -30, 0, 0), own));
  threats.push_back(threat_at(2, track_at(400, 150, 980, 35, 0, 0), own));
  resolver.gate_and_sort(own, &threats);
  ASSERT_EQ(threats.size(), 2U);
  ASSERT_EQ(threats[0].aircraft_id, 1);
  ASSERT_FALSE(threats[1].converging);

  AcasXuCas with_joint(*table_, {.joint = *joint_});
  ResolverStats stats;
  const CasDecision resolved =
      resolver.resolve(with_joint, own, threats, &stats, ThreatPolicy::kJointTable);
  EXPECT_EQ(stats.joint_cycles, 0);
  EXPECT_EQ(stats.fused_cycles, 1);

  AcasXuCas pairwise_only(*table_);
  const CasDecision pairwise =
      pairwise_only.decide(own, threats[0].track, acasx::Sense::kNone);
  EXPECT_EQ(resolved.label, pairwise.label);
  EXPECT_EQ(resolved.sense, pairwise.sense);
  EXPECT_EQ(resolved.maneuver, pairwise.maneuver);
}

/// FakeCostCas plus a deterministic joint answer: the joint vote depends
/// only on the (unordered) pair of threat ids, so resolver-level results
/// must be pure functions of the threat set under kJointTable too.
class FakeJointCas final : public CollisionAvoidanceSystem {
 public:
  CasDecision decide(const acasx::AircraftTrack&, const acasx::AircraftTrack&,
                     acasx::Sense) override {
    return {};
  }
  void reset() override {}

  bool evaluate_costs(const acasx::AircraftTrack&, const ThreatObservation& threat,
                      ThreatCosts* out) override {
    out->active = true;
    for (std::size_t a = 0; a < acasx::kNumAdvisories; ++a) {
      out->costs[a] =
          static_cast<double>(((threat.aircraft_id * 7 + static_cast<int>(a) * 13) % 5));
    }
    return true;
  }
  bool evaluate_joint_costs(const acasx::AircraftTrack&, const ThreatObservation& primary,
                            const ThreatObservation& secondary, ThreatCosts* out) override {
    joint_queries.push_back({primary.aircraft_id, secondary.aircraft_id});
    out->active = true;
    const int key = primary.aircraft_id * secondary.aircraft_id;
    for (std::size_t a = 0; a < acasx::kNumAdvisories; ++a) {
      out->costs[a] = static_cast<double>((key * 3 + static_cast<int>(a) * 11) % 7);
    }
    return true;
  }
  CasDecision commit_fused(const acasx::AircraftTrack&, const ThreatObservation&,
                           acasx::Advisory fused) override {
    committed = fused;
    CasDecision d;
    d.label = acasx::advisory_name(fused);
    d.sense = acasx::sense_of(fused);
    d.maneuver = fused != acasx::Advisory::kCoc;
    return d;
  }

  acasx::Advisory committed = acasx::Advisory::kCoc;
  std::vector<std::pair<int, int>> joint_queries;
};

TEST(MultiThreatResolverTest, JointSelectionInvariantUnderPermutation) {
  MultiThreatResolver resolver;
  std::mt19937 rng(4242);
  std::uniform_real_distribution<double> pos(-4000.0, 4000.0);
  std::uniform_real_distribution<double> alt(-150.0, 150.0);
  std::uniform_real_distribution<double> vel(-60.0, 60.0);
  std::uniform_int_distribution<int> count(2, 6);

  int joint_rounds = 0;
  for (int round = 0; round < 200; ++round) {
    const acasx::AircraftTrack own = track_at(0, 0, 1000, 40, 0, 0);
    std::vector<ThreatObservation> threats;
    const int k = count(rng);
    for (int id = 1; id <= k; ++id) {
      threats.push_back(threat_at(
          id, track_at(pos(rng), pos(rng), 1000.0 + alt(rng), vel(rng), vel(rng), 0), own));
    }
    std::vector<ThreatObservation> shuffled = threats;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);

    resolver.gate_and_sort(own, &threats);
    resolver.gate_and_sort(own, &shuffled);
    if (threats.empty()) continue;

    FakeJointCas a;
    FakeJointCas b;
    ResolverStats stats_a;
    ResolverStats stats_b;
    resolver.resolve(a, own, threats, &stats_a, ThreatPolicy::kJointTable);
    resolver.resolve(b, own, shuffled, &stats_b, ThreatPolicy::kJointTable);
    EXPECT_EQ(a.committed, b.committed) << "round " << round;
    EXPECT_EQ(a.joint_queries, b.joint_queries) << "round " << round;
    EXPECT_EQ(stats_a.joint_cycles, stats_b.joint_cycles);
    EXPECT_EQ(stats_a.vetoes, stats_b.vetoes);
    if (stats_a.joint_cycles > 0) {
      ++joint_rounds;
      // The joint query targets the two most severe gated threats.
      EXPECT_EQ(a.joint_queries.front().first, threats[0].aircraft_id);
      EXPECT_EQ(a.joint_queries.front().second, threats[1].aircraft_id);
    }
  }
  EXPECT_GT(joint_rounds, 20) << "the fuzz actually exercised the joint path";
}

TEST(MultiThreatResolverTest, FallbackRespectsForbiddenSenseOnFlip) {
  MultiThreatResolver resolver;
  const acasx::AircraftTrack own = track_at(0, 0, 1000, 30, 0, 0);

  // Same geometry as the veto test, but some link has forbidden descend:
  // the flip is off the table and the original climb stands.
  std::vector<ThreatObservation> threats;
  threats.push_back(
      threat_at(1, track_at(600, 0, 1000, -30, 0, 0), own, acasx::Sense::kDescend));
  threats.push_back(threat_at(2, track_at(300, 10, 1020, -30, 0, 0), own));

  AlwaysClimbCas cas;
  ResolverStats stats;
  const CasDecision d = resolver.resolve(cas, own, threats, &stats);
  EXPECT_EQ(stats.vetoes, 0);
  EXPECT_EQ(d.sense, acasx::Sense::kClimb);
}

}  // namespace
}  // namespace cav::sim
