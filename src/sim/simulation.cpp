#include "sim/simulation.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "util/expect.h"

namespace cav::sim {

bool SimResult::own_nmac() const {
  for (const PairReport& p : pairs) {
    if (p.a == 0 && p.nmac) return true;
  }
  return false;
}

double SimResult::own_min_separation_m() const {
  double min = std::numeric_limits<double>::infinity();
  for (const PairReport& p : pairs) {
    if (p.a == 0 && p.proximity.min_distance_m < min) min = p.proximity.min_distance_m;
  }
  return min;
}

const PairReport& SimResult::pair(int a, int b) const {
  if (a > b) std::swap(a, b);
  for (const PairReport& p : pairs) {
    if (p.a == a && p.b == b) return p;
  }
  expect(false, "no such aircraft pair in the result");
  return pairs.front();  // unreachable
}

Simulation::Simulation(const SimConfig& config, std::vector<AgentSetup> agents,
                       std::uint64_t seed)
    : config_(config),
      coord_(config.coordination, agents.size() < 2 ? 2 : agents.size()),
      sensor_(config.adsb),
      monitors_(agents.size(), config.accident),
      resolver_(config.threat_gate),
      rng_coord_(RngStream::derive(seed, "coordination")),
      airspace_(config.airspace, agents.size()) {
  expect(config.dt_dynamics_s > 0.0, "dt_dynamics_s > 0");
  expect(config.decision_period_s >= config.dt_dynamics_s,
         "decision period is at least one physics step");
  // run() decides every round(period / dt) physics steps, while scripted
  // maneuvers and trackers count time in configured periods; a period that
  // is not a whole number of steps would make the two clocks drift apart.
  const double steps = config.decision_period_s / config.dt_dynamics_s;
  expect(std::abs(steps - std::round(steps)) <= 1e-9 * steps,
         "decision period is a whole number of physics steps");
  expect(config.max_time_s > 0.0, "max_time_s > 0");
  expect(config.record_every_n >= 1, "record_every_n >= 1");
  expect(config.airspace.parallel.num_lps >= 1, "num_lps >= 1");
  expect(agents.size() >= 2, "a simulation needs at least two aircraft");

  runtimes_.reserve(agents.size());
  for (std::size_t i = 0; i < agents.size(); ++i) {
    AgentSetup& setup = agents[i];
    // Independent streams per (random source, aircraft) keep results
    // identical across serial/parallel execution, make failure injection
    // orthogonal, and — crucially — do not depend on the aircraft count, so
    // the two-aircraft path draws the exact streams it always did.
    runtimes_.push_back(AgentRuntime{
        UavAgent(static_cast<int>(i), setup.initial_state, setup.performance),
        std::move(setup.cas),
        {},
        {},
        acasx::Sense::kNone,
        acasx::Sense::kNone,
        "COC",
        RngStream::derive(seed, "adsb", i),
        RngStream::derive(seed, "disturbance", i),
        RngStream::derive(seed, "fault", i),
        {},
        {},
        setup.fault.has_value() ? *setup.fault : config.fault,
        setup.count_alerts,
        true,
        0.0});
    if (runtimes_.back().cas != nullptr) runtimes_.back().cas->reset();
  }
  positions_.resize(runtimes_.size());
  velocities_.resize(runtimes_.size());
  comms_down_.resize(runtimes_.size(), false);
  blackout_depth_.resize(runtimes_.size(), 0);

  // Comms-blackout window edges become first-class scheduled events.  An
  // edge at t_e fires at the first decision time t >= t_e — the same
  // boundary TimeWindow::contains evaluated each cycle, so the
  // event-driven mask is bit-identical to the per-cycle scan.  Degenerate
  // windows (end <= start), which contains() never satisfied, schedule
  // nothing.
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    for (const TimeWindow& w : runtimes_[i].fault.comms_blackouts) {
      if (w.end_s <= w.start_s) continue;
      events_.push(w.start_s, EventType::kCommsBlackoutStart, static_cast<int>(i));
      events_.push(w.end_s, EventType::kCommsBlackoutEnd, static_cast<int>(i));
    }
  }
}

acasx::AircraftTrack Simulation::self_track(std::size_t i) const {
  // Own state is known exactly (GPS/IMU fidelity is far above ADS-B noise
  // at these scales); only the *other* aircraft are seen through ADS-B.
  return {positions_[i], velocities_[i]};
}

void Simulation::receive_track(AgentRuntime& me, TrackSlot& slot) {
  const auto target = static_cast<std::size_t>(slot.target);
  if (!me.fault.degrades_surveillance()) {
    // The pre-fault seed path, draw for draw.
    auto received = sensor_.observe(positions_[target], velocities_[target], me.rng_adsb);
    if (received.has_value()) slot.track = *received;
    return;
  }

  auto received = observe_degraded(sensor_, positions_[target], velocities_[target], me.fault,
                                   me.rng_adsb, me.rng_fault, &slot.burst_cycles_left);
  if (received.has_value()) {
    slot.track = *received;
    slot.age_cycles = 0;
  } else {
    ++slot.age_cycles;
    // Track-staleness horizon: a coasted track older than the horizon is
    // dropped — the aircraft un-sees that traffic until it hears it again
    // — instead of being trusted forever.
    if (slot.track.has_value() &&
        static_cast<double>(slot.age_cycles) * config_.decision_period_s >
            me.fault.track_staleness_horizon_s) {
      slot.track.reset();
    }
  }
}

void Simulation::refresh_tracks(AgentRuntime& me, const std::vector<int>& neighbors) {
  // Merge the sorted track set against the sorted neighbor list: keep the
  // slot (and its burst/age state) for targets still in radius, create
  // slots for new arrivals, drop the rest — the aircraft un-sees traffic
  // that left its reception range.  Each kept or new slot receives this
  // cycle's broadcast in ascending target order, which is exactly the
  // dense engine's 0..K reception loop when `neighbors` is everyone.
  std::vector<TrackSlot>& next = me.tracks_scratch;
  next.clear();
  std::size_t k = 0;
  for (const int j : neighbors) {
    while (k < me.tracks.size() && me.tracks[k].target < j) ++k;
    if (k < me.tracks.size() && me.tracks[k].target == j) {
      next.push_back(std::move(me.tracks[k]));
      ++k;
    } else {
      TrackSlot fresh;
      fresh.target = j;
      next.push_back(std::move(fresh));
    }
    receive_track(me, next.back());
  }
  std::swap(me.tracks, next);
}

void Simulation::refresh_surveillance() {
  // Receive every in-radius aircraft's broadcast, in index order (so the
  // draw sequence on each aircraft's ADS-B stream is deterministic); coast
  // on the last track heard for an aircraft whose message was lost.
  // Reception touches only the receiving agent's own streams and track
  // slots and reads the cycle's broadcast arrays, which stay frozen until
  // the physics phase, so the agents partition across logical processes;
  // the per-stream draw sequences are exactly the legacy interleaved
  // sweep's.  Unequipped
  // aircraft (no CAS) hold no surveillance picture and receive nothing,
  // as before.
  const LpConfig& parallel = config_.airspace.parallel;
  for_each_lp(parallel, [&](int lp) {
    const auto [begin, end] = lp_index_range(lp, parallel.num_lps, runtimes_.size());
    for (std::size_t i = begin; i < end; ++i) {
      AgentRuntime& me = runtimes_[i];
      if (me.cas == nullptr) continue;
      refresh_tracks(me, airspace_.neighbors_of(i));
    }
  });
}

void Simulation::decide_for(AgentRuntime& me, std::size_t my_id, double t_s) {
  if (me.cas == nullptr) return;

  if (me.tracks.empty()) {
    // All traffic left the interaction radius: no surveillance picture
    // remains, so resume the flight plan rather than flying a frozen
    // advisory forever.  Unreachable under the dense index (K >= 2 keeps
    // every slot alive) and in any run whose geometry stays inside the
    // radius.
    me.agent.set_command(VerticalCommand{});
    me.agent.set_turn_command(TurnCommand{});
    me.current_label = "COC";
    me.last_sense = acasx::Sense::kNone;
    me.report.final_advisory = "COC";
    return;
  }

  // Multi-threat arbitration (ThreatPolicy::kCostFused / kJointTable):
  // hand every gated track to the resolver instead of just the nearest
  // one.  When the gate leaves nothing (all traffic far and diverging),
  // fall through to the nearest-threat path so a previously issued
  // command is still cleared by the CAS rather than frozen in place.
  CasDecision decision;
  bool resolved = false;
  if (config_.threat_policy != ThreatPolicy::kNearest) {
    const acasx::AircraftTrack own_track = self_track(my_id);
    std::vector<ThreatObservation>& threats = me.threat_scratch;
    threats.clear();
    for (const TrackSlot& slot : me.tracks) {
      if (!slot.track.has_value()) continue;
      ThreatObservation obs;
      obs.aircraft_id = slot.target;
      obs.track = *slot.track;
      obs.forbidden_sense = coord_.forbidden_for(static_cast<int>(my_id), slot.target);
      obs.range_m = distance(obs.track.position_m, own_track.position_m);
      threats.push_back(std::move(obs));
    }
    resolver_.gate_and_sort(own_track, &threats);
    if (!threats.empty()) {
      decision = resolver_.resolve(*me.cas, own_track, threats, &me.report.resolver,
                                   config_.threat_policy);
      resolved = true;
    }
  }

  if (!resolved) {
    // Nearest-threat selection: the existing avoidance systems are pairwise,
    // so the engine feeds them the closest track currently held (lowest
    // index on ties).  Stay passive if nothing has ever been heard.
    const Vec3& my_position = positions_[my_id];
    const TrackSlot* threat = nullptr;
    double threat_distance = std::numeric_limits<double>::infinity();
    for (const TrackSlot& slot : me.tracks) {
      if (!slot.track.has_value()) continue;
      const double d = distance(slot.track->position_m, my_position);
      if (d < threat_distance) {
        threat_distance = d;
        threat = &slot;
      }
    }
    if (threat == nullptr) return;

    decision = me.cas->decide(self_track(my_id), *threat->track,
                              coord_.forbidden_for(static_cast<int>(my_id), threat->target));
  }

  VerticalCommand command;
  command.active = decision.maneuver;
  command.target_vs_mps = decision.target_vs_mps;
  command.accel_mps2 = decision.accel_mps2;
  me.agent.set_command(command);

  TurnCommand turn;
  turn.active = decision.turn;
  turn.rate_rad_s = decision.turn_rate_rad_s;
  me.agent.set_turn_command(turn);

  me.current_label = decision.label;

  if (decision.maneuver || decision.turn) {
    if (me.count_alerts && !me.report.ever_alerted) {
      me.report.ever_alerted = true;
      me.report.first_alert_time_s = t_s;
    }
    if (me.count_alerts) ++me.report.alert_cycles;
    // Reversal monitor: compare against the last *issued* sense, which
    // survives COC coasting gaps — an RA -> COC -> opposite-RA sequence is
    // a reversal (the paper's reversal monitor), not a fresh alert.
    if (me.last_issued_sense != acasx::Sense::kNone && decision.sense != acasx::Sense::kNone &&
        me.last_issued_sense != decision.sense) {
      ++me.report.reversals;
    }
    if (decision.sense != acasx::Sense::kNone) me.last_issued_sense = decision.sense;
    me.last_sense = decision.sense;
  } else {
    me.last_sense = acasx::Sense::kNone;
  }
  me.report.final_advisory = decision.label;
}

void Simulation::decide_all(double t_s) {
  // Staleness clock + per-agent comms-blackout mask for this cycle.  The
  // tick touches no RNG; the mask comes from the event queue (blackout
  // window edges drained by begin_decision_cycle), which reproduces the
  // per-cycle window scan exactly.
  coord_.tick();
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    comms_down_[i] = blackout_depth_[i] > 0;
  }

  // Surveillance phase: LP-parallel, then a barrier — every track picture
  // is complete before the first decision is taken.
  refresh_surveillance();

  // Sequential decisions: lower-index aircraft announce first, so a later
  // aircraft sees a fresh constraint (the paper's own-ship -> intruder
  // coordination command); earlier aircraft saw the later ones' previous
  // announcements, giving the one-cycle latency a real datalink has.
  // This sweep is the serial section the logical processes synchronize
  // around: decisions read same-cycle posts of lower-index aircraft, and
  // posts share one coordination stream, so order is semantics here.
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    decide_for(runtimes_[i], i, t_s);
    // A blacked-out or coordination-silent sender transmits nothing (its
    // links make no draws this cycle); a blacked-out receiver's links
    // still draw inside post(), but nothing is delivered to it.  Delivery
    // reaches in-radius receivers only — with the dense index that is
    // every other aircraft, draw for draw the legacy broadcast.
    if (comms_down_[i] || runtimes_[i].fault.coordination_silent) continue;
    coord_.post(static_cast<int>(i), runtimes_[i].last_sense, rng_coord_, &comms_down_,
                airspace_.neighbors_of(i));
  }
}

void Simulation::record_sample(double t_s, SimResult& result) const {
  MultiTrajectoryFrame m;
  m.t_s = t_s;
  m.position_m.reserve(runtimes_.size());
  m.vs_mps.reserve(runtimes_.size());
  m.advisory.reserve(runtimes_.size());
  for (const AgentRuntime& r : runtimes_) {
    m.position_m.push_back(r.agent.state().position_m);
    m.vs_mps.push_back(r.agent.state().vertical_speed_mps);
    m.advisory.push_back(r.current_label);
  }
  result.trajectory.push_back(std::move(m));
}

void Simulation::refresh_broadcasts() {
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    positions_[i] = runtimes_[i].agent.state().position_m;
    velocities_[i] = runtimes_[i].agent.velocity_mps();
  }
}

void Simulation::begin_decision_cycle(double t_s, SimStats* stats) {
  // 1. Drain scheduled fault events up to the accumulated clock.  Each
  //    blackout edge adjusts a per-agent depth counter; decide_all reads
  //    depth > 0 as "comms down", matching the legacy window scan.
  while (events_.has_due(t_s)) {
    const Event e = events_.pop();
    blackout_depth_[static_cast<std::size_t>(e.agent)] +=
        e.type == EventType::kCommsBlackoutStart ? 1 : -1;
    ++stats->fault_events;
  }

  // 2. Catch inactive agents up to the decision time with one coarse step
  //    covering the whole period (one disturbance draw instead of ten).
  //    Per-agent streams and state: LP-parallel, tallies summed in LP
  //    order afterwards.
  const LpConfig& parallel = config_.airspace.parallel;
  lp_step_counts_.assign(static_cast<std::size_t>(parallel.num_lps), 0);
  for_each_lp(parallel, [&](int lp) {
    const auto [begin, end] = lp_index_range(lp, parallel.num_lps, runtimes_.size());
    std::uint64_t steps = 0;
    for (std::size_t i = begin; i < end; ++i) {
      AgentRuntime& r = runtimes_[i];
      if (r.active || r.last_step_t_s >= t_s) continue;
      r.agent.step(t_s - r.last_step_t_s, config_.disturbance, r.rng_disturbance);
      r.last_step_t_s = t_s;
      ++steps;
    }
    lp_step_counts_[static_cast<std::size_t>(lp)] = steps;
  });
  for (const std::uint64_t steps : lp_step_counts_) stats->coarse_agent_steps += steps;

  // 3. Form this cycle's broadcasts (position, velocity) at the
  //    now-synchronized states — the one place a velocity is computed per
  //    aircraft per cycle — and rebuild the spatial index from them.
  refresh_broadcasts();
  airspace_.rebuild(positions_);

  // 4. Refresh the monitor set from the near pairs.  Newly materialized
  //    pairs are sampled at the activation time; pairs already active were
  //    sampled at the end of the previous physics step.
  const std::size_t fresh = monitors_.set_active_pairs(airspace_.near_pairs());
  if (fresh > 0) {
    monitors_.update_new(t_s, positions_, fresh);
    stats->pair_updates += fresh;
  }
  stats->peak_active_pairs = std::max(stats->peak_active_pairs, monitors_.num_active_pairs());

  // 5. Recompute the active set: an agent densifies to the physics dt
  //    while anyone is inside its interaction radius.
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    runtimes_[i].active = !airspace_.neighbors_of(i).empty();
  }
}

void Simulation::advance_period(double* t_io, std::size_t n_sub, double tail_dt,
                                SimStats* stats) {
  const double dt = config_.dt_dynamics_s;
  const LpConfig& parallel = config_.airspace.parallel;

  // Substep clock: the exact serial accumulation (t += dt, clamped tail
  // last) the flat fixed-dt loop performed, precomputed so every LP and
  // every monitor replays the identical float values.
  step_times_.resize(n_sub);
  double t = *t_io;
  for (std::size_t s = 0; s < n_sub; ++s) {
    t += (tail_dt > 0.0 && s + 1 == n_sub) ? tail_dt : dt;
    step_times_[s] = t;
  }

  // LP event loop: each logical process integrates its agents through the
  // whole period.  Snapshots are agent-major — aircraft i's position after
  // substep s is step_positions_[i * n_sub + s] — so each agent writes one
  // contiguous row and the replay reads two rows per pair.  An inactive
  // (coarse) agent fills its row with its decision-time position, the
  // stale position the legacy loop left in place each step.  Disturbance
  // draws come from per-agent streams, so the agent × substep iteration
  // order is free: per-agent results are bit-identical to the legacy
  // substep-major sweep.
  step_positions_.resize(runtimes_.size() * n_sub);
  lp_step_counts_.assign(static_cast<std::size_t>(parallel.num_lps), 0);
  for_each_lp(parallel, [&](int lp) {
    const auto [begin, end] = lp_index_range(lp, parallel.num_lps, runtimes_.size());
    std::uint64_t steps = 0;
    for (std::size_t i = begin; i < end; ++i) {
      AgentRuntime& r = runtimes_[i];
      Vec3* row = step_positions_.data() + i * n_sub;
      if (!r.active) {
        std::fill(row, row + n_sub, positions_[i]);
        continue;
      }
      for (std::size_t s = 0; s < n_sub; ++s) {
        const double step_dt = (tail_dt > 0.0 && s + 1 == n_sub) ? tail_dt : dt;
        r.agent.step(step_dt, config_.disturbance, r.rng_disturbance);
        row[s] = r.agent.state().position_m;
        ++steps;
      }
      r.last_step_t_s = step_times_[n_sub - 1];
    }
    lp_step_counts_[static_cast<std::size_t>(lp)] = steps;
  });
  for (const std::uint64_t steps : lp_step_counts_) stats->fine_agent_steps += steps;

  // Monitor phase (after the physics barrier): replay the snapshots over
  // the active pairs, slot-partitioned across LPs.
  monitors_.update_series(step_times_, step_positions_, n_sub, parallel.num_lps, parallel.pool);
  stats->pair_updates += static_cast<std::uint64_t>(n_sub) * monitors_.num_active_pairs();

  *t_io = step_times_[n_sub - 1];
}

SimResult Simulation::run() {
  const auto wall_start = std::chrono::steady_clock::now();
  SimResult result;

  const double dt = config_.dt_dynamics_s;
  const auto steps_per_decision =
      static_cast<std::size_t>(std::lround(config_.decision_period_s / dt));

  // Round the step count down to whole physics steps and close the run
  // with one clamped tail step, so max_time_s values that are not an
  // integer multiple of the physics step (Monte-Carlo's t_cpa + margin
  // rarely is) do not silently drop up to half a step of the encounter.
  // Tails below 1 ns are integration-grid round-off, not real time.
  const auto full_steps =
      static_cast<std::size_t>(std::floor(config_.max_time_s / dt + 1e-9));
  double tail_dt = config_.max_time_s - static_cast<double>(full_steps) * dt;
  if (tail_dt <= 1e-9) tail_dt = 0.0;
  const std::size_t total_steps = full_steps + (tail_dt > 0.0 ? 1 : 0);

  // One decision period at a time: the decision boundary (serial), then
  // the period's physics substeps and monitor updates as the LP event
  // loop (advance_period).  Decisions land at exactly the steps the flat
  // `step % steps_per_decision == 0` loop placed them, including a final
  // short period when total_steps is not a multiple.
  double t = 0.0;
  std::size_t step = 0;
  while (step < total_steps) {
    begin_decision_cycle(t, &result.stats);
    decide_all(t);
    if (config_.record_trajectory &&
        result.stats.decision_cycles % static_cast<std::uint64_t>(config_.record_every_n) == 0) {
      record_sample(t, result);
    }
    ++result.stats.decision_cycles;

    const std::size_t n_sub = std::min(steps_per_decision, total_steps - step);
    const bool closes_run = step + n_sub == total_steps;
    advance_period(&t, n_sub, closes_run ? tail_dt : 0.0, &result.stats);
    step += n_sub;
  }

  result.proximity = monitors_.aggregate_proximity();
  result.nmac = monitors_.any_nmac();
  result.nmac_time_s = monitors_.earliest_nmac_time_s();
  result.hard_collision = monitors_.any_hard_collision();
  result.pairs.reserve(monitors_.num_pairs());
  for (std::size_t p = 0; p < monitors_.num_pairs(); ++p) {
    const auto [i, j] = monitors_.pair_agents(p);
    PairReport pr;
    pr.a = static_cast<int>(i);
    pr.b = static_cast<int>(j);
    pr.proximity = monitors_.proximity_at(p).report();
    pr.nmac = monitors_.accidents_at(p).nmac();
    pr.nmac_time_s = monitors_.accidents_at(p).nmac_time_s();
    pr.hard_collision = monitors_.accidents_at(p).hard_collision();
    result.pairs.push_back(pr);
  }
  result.agents.reserve(runtimes_.size());
  for (const AgentRuntime& r : runtimes_) result.agents.push_back(r.report);
  result.elapsed_s = t;
  result.stats.monitored_pairs = monitors_.num_pairs();
  result.stats.coordination_links = coord_.num_links();
  result.wall_time_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  return result;
}

SimResult run_encounter(const SimConfig& config, AgentSetup own, AgentSetup intruder,
                        std::uint64_t seed) {
  std::vector<AgentSetup> agents;
  agents.push_back(std::move(own));
  agents.push_back(std::move(intruder));
  return Simulation(config, std::move(agents), seed).run();
}

SimResult run_multi_encounter(const SimConfig& config, std::vector<AgentSetup> agents,
                              std::uint64_t seed) {
  return Simulation(config, std::move(agents), seed).run();
}

}  // namespace cav::sim
