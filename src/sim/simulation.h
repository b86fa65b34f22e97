// N-aircraft encounter simulation (§VI.C): "The environment in our
// simulation is a 3-D infinite flight area ... When simulation begins, the
// two UAVs fly following their initial velocities but also be affected by
// environment disturbance.  The collision avoidance algorithm is
// incorporated into the UAVs."  The engine generalizes the paper's
// two-aircraft setup to any number of aircraft; the two-aircraft path is
// the same code and produces the same results.
//
// Structure per decision cycle (1 Hz by default):
//   1. surveillance: each equipped UAV receives every in-radius aircraft's
//      ADS-B broadcast (white sensor noise, optional dropout -> coast on
//      the last track heard for that aircraft; under a FaultProfile
//      additionally dropout bursts, per-axis bias, and a staleness horizon
//      that drops coasted tracks — faults.h);
//   2. decision + coordination, aircraft strictly in index order: each UAV
//      turns the tracks it holds into one advisory under the configured
//      ThreatPolicy — kNearest runs the (pairwise) collision avoidance
//      system against the nearest track, constrained by the coordination
//      sense that threat last delivered; kCostFused and kJointTable
//      arbitrate every gated threat through sim::MultiThreatResolver —
//      then broadcasts its own sense (skipped while its comms are blacked
//      out or the aircraft is coordination-silent);
//   3. dynamics integrate at the (faster) physics rate with environment
//      disturbance, while per-pair monitors watch every true separation.
//
// Phases 1 and 3 are per-agent / per-pair independent (every draw comes
// from a per-(seed, purpose, aircraft) stream; truth states are frozen
// during the cycle) and run on the logical processes configured by
// AirspaceConfig::parallel — bit-identically to the serial sweep for any
// LP/thread count.  Phase 2 is the engine's serial section: aircraft i's
// decision reads the coordination posts of aircraft j < i from this very
// cycle, and every post draws from the single shared coordination stream,
// so decisions and posts are sequentially coupled by design (the paper's
// own-ship -> intruder coordination command); LPs synchronize at exactly
// this boundary.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "sim/airspace.h"
#include "sim/cas.h"
#include "sim/coordination.h"
#include "sim/faults.h"
#include "sim/monitors.h"
#include "sim/multi_threat.h"
#include "sim/sensors.h"
#include "sim/trajectory.h"
#include "sim/uav.h"
#include "util/rng.h"

namespace cav::sim {

struct SimConfig {
  double dt_dynamics_s = 0.1;     ///< physics integration step
  double decision_period_s = 1.0; ///< surveillance/decision cycle
  double max_time_s = 120.0;      ///< hard stop
  DisturbanceConfig disturbance;
  AdsbConfig adsb;                ///< white noise + i.i.d. dropout (all links)
  /// Loss model for the coordination datalink, including the per-link
  /// Gilbert–Elliott burst states and the staleness TTL (coordination.h).
  CoordinationConfig coordination;
  AccidentConfig accident;
  /// Fleet-wide fault profile (faults.h): comms blackout windows, ADS-B
  /// dropout bursts / per-axis bias, and the track-staleness horizon.
  /// Applied to every aircraft unless AgentSetup::fault overrides it.
  /// The default none() profile injects nothing and keeps the engine
  /// bit-identical to the pre-fault seed path.
  FaultProfile fault;
  /// kNearest reproduces the PR 3 engine bit-identically (and is the
  /// paper's pairwise setup for two aircraft); kCostFused arbitrates all
  /// gated threats per cycle; kJointTable additionally prices the two
  /// most severe threats through the joint-threat table when the CAS
  /// carries one (multi_threat.h).
  ThreatPolicy threat_policy = ThreatPolicy::kNearest;
  ThreatGateConfig threat_gate;   ///< only read under kCostFused/kJointTable
  /// Spatial index + adaptive-timer configuration (airspace.h).  The
  /// default 25 km radius reproduces every legacy scenario exactly because
  /// their geometry never spans it; `AirspaceConfig::legacy()` (infinite
  /// radius) selects the dense fixed-dt engine.
  AirspaceConfig airspace;
  bool record_trajectory = false; ///< keep per-decision-cycle samples
  /// Record every Nth decision-cycle sample (1 = every cycle, the
  /// pre-decimation behavior).  City-scale runs set this higher so a
  /// recorded trajectory of 1000 aircraft stays bounded.
  int record_every_n = 1;
};

/// Event-core accounting for one run — what the adaptive engine actually
/// did, so benches and tests can assert O(near pairs) behavior instead of
/// inferring it from wall clock alone.
struct SimStats {
  std::uint64_t decision_cycles = 0;
  std::uint64_t fine_agent_steps = 0;    ///< UavAgent::step calls at the physics dt
  std::uint64_t coarse_agent_steps = 0;  ///< one-per-decision-period catch-up steps
  std::uint64_t fault_events = 0;        ///< blackout toggles popped off the event queue
  std::uint64_t pair_updates = 0;        ///< per-pair monitor updates
  std::size_t monitored_pairs = 0;       ///< pair-monitor slots materialized
  std::size_t peak_active_pairs = 0;     ///< largest per-cycle near-pair set
  /// Coordination links materialized (receiver, sender pairs that saw a
  /// delivery attempt); at most 2 × monitored_pairs.
  std::size_t coordination_links = 0;
};

struct AgentReport {
  bool ever_alerted = false;
  double first_alert_time_s = -1.0;
  int alert_cycles = 0;       ///< decision cycles with an active maneuver
  int reversals = 0;          ///< sense flips between issued advisories
                              ///< (counted across COC coasting gaps)
  std::string final_advisory = "COC";
  /// Multi-threat arbitration stats — populated under both kCostFused and
  /// kJointTable (joint_cycles is nonzero only under the latter); zeroed
  /// under kNearest, which never reaches the resolver.
  ResolverStats resolver;
};

/// Monitor outcome for one unordered aircraft pair (a < b).
struct PairReport {
  int a = 0;
  int b = 1;
  ProximityReport proximity;
  bool nmac = false;
  double nmac_time_s = -1.0;
  bool hard_collision = false;
};

struct SimResult {
  ProximityReport proximity;  ///< minima over every aircraft pair
  bool nmac = false;          ///< any pair penetrated the NMAC cylinder
  double nmac_time_s = -1.0;  ///< earliest penetration across pairs
  bool hard_collision = false;
  /// One per aircraft, in setup order: agents[0] is the own-ship and, in a
  /// pairwise encounter, agents[1] the intruder.
  std::vector<AgentReport> agents;
  /// Monitored pairs, sorted by (a, b).  Under the dense/legacy index this
  /// is every pair; under the grid index only pairs that ever came within
  /// the interaction radius materialize.
  std::vector<PairReport> pairs;
  double elapsed_s = 0.0;
  double wall_time_s = 0.0;  ///< host wall clock consumed by run(); not
                             ///< part of the determinism contract
  SimStats stats;
  MultiTrajectory trajectory;  ///< all aircraft; empty unless record_trajectory

  /// The fitness distance d_k of the paper (§VII): 0 on a mid-air
  /// collision, otherwise the minimum 3-D separation over the run.
  double miss_distance_m() const { return nmac ? 0.0 : proximity.min_distance_m; }

  /// Own-ship-centric variants over the pairs involving aircraft 0 — the
  /// multi-intruder fitness ignores intruder-vs-intruder proximity.
  bool own_nmac() const;
  double own_min_separation_m() const;
  double own_miss_distance_m() const {
    return own_nmac() ? 0.0 : own_min_separation_m();
  }

  const PairReport& pair(int a, int b) const;
};

/// Initial condition + avoidance system for one aircraft.
struct AgentSetup {
  UavState initial_state;
  std::unique_ptr<CollisionAvoidanceSystem> cas;  ///< may be null (unequipped)
  UavPerformance performance;
  /// Per-aircraft fault profile; overrides SimConfig::fault for this
  /// aircraft when set (mixed fleets: one degraded receiver, one
  /// non-cooperative intruder, ...).
  std::optional<FaultProfile> fault;
  /// Whether this aircraft's maneuvers count in the alert statistics.
  /// Scripted adversaries (ScriptedManeuverCas) set this false: their
  /// maneuvers are attacks, not avoidance alerts.
  bool count_alerts = true;
};

/// Surveillance state one aircraft holds about one other aircraft.  Slots
/// exist only for aircraft inside the interaction radius (every other
/// aircraft under the dense index), kept sorted by target id so the
/// per-cycle reception order — and therefore the ADS-B draw sequence — is
/// ascending, exactly as the dense engine's 0..K loop drew it.
struct TrackSlot {
  int target = -1;
  std::optional<acasx::AircraftTrack> track;  ///< nullopt: never heard / dropped stale
  int age_cycles = 0;        ///< decision cycles since last reception
  int burst_cycles_left = 0; ///< active ADS-B dropout burst
};

/// Per-aircraft bookkeeping during a run.
struct AgentRuntime {
  UavAgent agent;
  std::unique_ptr<CollisionAvoidanceSystem> cas;  ///< may be null
  std::vector<TrackSlot> tracks;  ///< sorted by target id; in-radius targets only
  AgentReport report;
  acasx::Sense last_sense = acasx::Sense::kNone;  ///< announced sense (COC clears it)
  acasx::Sense last_issued_sense = acasx::Sense::kNone;  ///< survives COC gaps
  std::string current_label = "COC";
  RngStream rng_adsb;
  RngStream rng_disturbance;
  /// Burst start/length draws for ADS-B dropout bursts — separate from
  /// rng_adsb so a bias-only or burst-free profile leaves the noise draw
  /// sequence untouched.
  RngStream rng_fault;
  /// Scratch for the kCostFused threat list, reused across decision cycles
  /// so the Monte-Carlo hot path does not allocate per cycle.
  std::vector<ThreatObservation> threat_scratch;
  std::vector<TrackSlot> tracks_scratch;  ///< merge buffer for the track set
  FaultProfile fault;             ///< resolved profile (agent override or fleet)
  bool count_alerts = true;
  /// Adaptive-timer state: an active agent (some aircraft inside its
  /// interaction radius) integrates at the physics dt; an inactive one
  /// takes a single catch-up step per decision period.  Always active
  /// under the dense index, where every other aircraft is a neighbour.
  bool active = true;
  double last_step_t_s = 0.0;  ///< simulation time this agent is integrated to
};

/// One N-aircraft encounter.  All stochastic draws derive from `seed` and
/// the aircraft index, so identical inputs give identical results
/// regardless of thread; with two aircraft the engine reproduces the
/// original pairwise simulation exactly.
class Simulation {
 public:
  Simulation(const SimConfig& config, std::vector<AgentSetup> agents, std::uint64_t seed);

  std::size_t num_agents() const { return runtimes_.size(); }

  /// Run to the configured time limit and collect the result.
  SimResult run();

 private:
  void decide_for(AgentRuntime& me, std::size_t my_id, double t_s);
  void decide_all(double t_s);
  void receive_track(AgentRuntime& me, TrackSlot& slot);
  void refresh_tracks(AgentRuntime& me, const std::vector<int>& neighbors);
  /// Surveillance phase: every equipped agent receives this cycle's
  /// in-radius broadcasts.  Each agent touches only its own streams and
  /// reads frozen truth states, so the phase runs LP-parallel and is
  /// bit-identical to the legacy per-agent interleaving.
  void refresh_surveillance();
  void record_sample(double t_s, SimResult& result) const;
  void refresh_positions(bool active_only);
  /// Drain due fault events, catch up coarse agents, rebuild the spatial
  /// index, refresh the monitor set, and recompute the active set — the
  /// per-decision-cycle event-core work, before the decisions themselves.
  void begin_decision_cycle(double t_s, SimStats* stats);
  /// The LP event loop for one decision period: integrate every active
  /// agent through `n_sub` physics substeps (recording a position snapshot
  /// per substep) and replay the snapshots through the pair monitors.
  /// `tail_dt`, when positive, replaces the physics dt on the last substep
  /// (the clamped run-closing step).  Advances *t_io to the period end.
  void advance_period(double* t_io, std::size_t n_sub, double tail_dt, SimStats* stats);

  SimConfig config_;
  std::vector<AgentRuntime> runtimes_;
  CoordinationChannel coord_;
  AdsbSensor sensor_;
  PairwiseMonitors monitors_;
  MultiThreatResolver resolver_;  ///< arbitration layer (kCostFused/kJointTable)
  RngStream rng_coord_;
  Airspace airspace_;             ///< spatial index + adjacency, rebuilt per cycle
  EventQueue events_;             ///< scheduled fault transitions
  std::vector<Vec3> positions_;   ///< scratch for index/monitor updates
  std::vector<bool> comms_down_;  ///< per-agent blackout mask, event-driven
  std::vector<int> blackout_depth_;  ///< active blackout windows per agent
  // Per-decision-period scratch for the LP event loop (advance_period):
  // substep times (the serial clock accumulation, precomputed) and one
  // position snapshot row per substep.  Persistent so the steady-state
  // period allocates nothing.
  std::vector<double> step_times_;
  std::vector<std::vector<Vec3>> step_positions_;
  std::vector<std::uint64_t> lp_step_counts_;  ///< per-LP step tallies, summed serially
};

/// Run one two-aircraft encounter to completion (the paper's setup).
SimResult run_encounter(const SimConfig& config, AgentSetup own, AgentSetup intruder,
                        std::uint64_t seed);

/// Run one N-aircraft encounter; `agents[0]` is the own-ship.
SimResult run_multi_encounter(const SimConfig& config, std::vector<AgentSetup> agents,
                              std::uint64_t seed);

}  // namespace cav::sim
