#include "dist/spec_codec.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "acasx/joint_table.h"
#include "acasx/logic_table.h"
#include "baselines/svo.h"
#include "baselines/tcas_like.h"
#include "sim/acasx_cas.h"

namespace cav::dist {
namespace {

void encode_fault_profile(ByteWriter& out, const sim::FaultProfile& f) {
  out.u64(f.comms_blackouts.size());
  for (const sim::TimeWindow& w : f.comms_blackouts) {
    out.f64(w.start_s);
    out.f64(w.end_s);
  }
  out.u8(f.coordination_silent ? 1 : 0);
  out.f64(f.adsb_dropout_burst_prob);
  out.f64(f.adsb_burst_continue_prob);
  out.f64(f.adsb_position_bias_m.x);
  out.f64(f.adsb_position_bias_m.y);
  out.f64(f.adsb_position_bias_m.z);
  out.f64(f.adsb_velocity_bias_mps.x);
  out.f64(f.adsb_velocity_bias_mps.y);
  out.f64(f.adsb_velocity_bias_mps.z);
  out.f64(f.track_staleness_horizon_s);
}

sim::FaultProfile decode_fault_profile(ByteReader& in) {
  sim::FaultProfile f;
  const std::uint64_t n = in.u64();
  // A blackout schedule larger than the payload could hold is garbage.
  if (n > in.remaining() / (2 * sizeof(double))) throw ProtocolError("fault windows overrun");
  f.comms_blackouts.resize(static_cast<std::size_t>(n));
  for (sim::TimeWindow& w : f.comms_blackouts) {
    w.start_s = in.f64();
    w.end_s = in.f64();
  }
  f.coordination_silent = in.u8() != 0;
  f.adsb_dropout_burst_prob = in.f64();
  f.adsb_burst_continue_prob = in.f64();
  f.adsb_position_bias_m = {in.f64(), in.f64(), in.f64()};
  f.adsb_velocity_bias_mps = {in.f64(), in.f64(), in.f64()};
  f.track_staleness_horizon_s = in.f64();
  return f;
}

void encode_sim_config(ByteWriter& out, const sim::SimConfig& s) {
  out.f64(s.dt_dynamics_s);
  out.f64(s.decision_period_s);
  out.f64(s.max_time_s);
  out.f64(s.disturbance.vertical_sigma);
  out.f64(s.disturbance.vertical_reversion);
  out.f64(s.disturbance.horizontal_sigma);
  out.f64(s.disturbance.horizontal_reversion);
  out.f64(s.adsb.horizontal_pos_sigma_m);
  out.f64(s.adsb.vertical_pos_sigma_m);
  out.f64(s.adsb.horizontal_vel_sigma_mps);
  out.f64(s.adsb.vertical_vel_sigma_mps);
  out.f64(s.adsb.dropout_prob);
  out.u8(s.coordination.enabled ? 1 : 0);
  out.f64(s.coordination.message_loss_prob);
  out.f64(s.coordination.burst_enter_prob);
  out.f64(s.coordination.burst_exit_prob);
  out.f64(s.coordination.burst_loss_prob);
  out.u64(static_cast<std::uint64_t>(s.coordination.staleness_ttl_cycles));
  out.f64(s.accident.nmac_horizontal_m);
  out.f64(s.accident.nmac_vertical_m);
  out.f64(s.accident.collision_radius_m);
  encode_fault_profile(out, s.fault);
  out.u32(static_cast<std::uint32_t>(s.threat_policy));
  out.f64(s.threat_gate.range_gate_m);
  out.f64(s.threat_gate.tau_gate_s);
  out.u64(s.threat_gate.max_threats);
  out.f64(s.threat_gate.blocking_vertical_m);
  out.f64(s.threat_gate.assumed_rate_mps);
  out.f64(s.airspace.interaction_radius_m);
  out.u8(s.record_trajectory ? 1 : 0);
  out.u64(static_cast<std::uint64_t>(s.record_every_n));
}

sim::SimConfig decode_sim_config(ByteReader& in) {
  sim::SimConfig s;
  s.dt_dynamics_s = in.f64();
  s.decision_period_s = in.f64();
  s.max_time_s = in.f64();
  s.disturbance.vertical_sigma = in.f64();
  s.disturbance.vertical_reversion = in.f64();
  s.disturbance.horizontal_sigma = in.f64();
  s.disturbance.horizontal_reversion = in.f64();
  s.adsb.horizontal_pos_sigma_m = in.f64();
  s.adsb.vertical_pos_sigma_m = in.f64();
  s.adsb.horizontal_vel_sigma_mps = in.f64();
  s.adsb.vertical_vel_sigma_mps = in.f64();
  s.adsb.dropout_prob = in.f64();
  s.coordination.enabled = in.u8() != 0;
  s.coordination.message_loss_prob = in.f64();
  s.coordination.burst_enter_prob = in.f64();
  s.coordination.burst_exit_prob = in.f64();
  s.coordination.burst_loss_prob = in.f64();
  s.coordination.staleness_ttl_cycles = static_cast<int>(in.u64());
  s.accident.nmac_horizontal_m = in.f64();
  s.accident.nmac_vertical_m = in.f64();
  s.accident.collision_radius_m = in.f64();
  s.fault = decode_fault_profile(in);
  const std::uint32_t policy = in.u32();
  if (policy > static_cast<std::uint32_t>(sim::ThreatPolicy::kJointTable)) {
    throw ProtocolError("bad threat policy");
  }
  s.threat_policy = static_cast<sim::ThreatPolicy>(policy);
  s.threat_gate.range_gate_m = in.f64();
  s.threat_gate.tau_gate_s = in.f64();
  s.threat_gate.max_threats = static_cast<std::size_t>(in.u64());
  s.threat_gate.blocking_vertical_m = in.f64();
  s.threat_gate.assumed_rate_mps = in.f64();
  s.airspace.interaction_radius_m = in.f64();
  s.record_trajectory = in.u8() != 0;
  s.record_every_n = static_cast<int>(in.u64());
  return s;
}

void encode_model_config(ByteWriter& out, const encounter::StatisticalModelConfig& m) {
  out.f64(m.gs_mean_mps);
  out.f64(m.gs_sigma_mps);
  out.f64(m.p_level);
  out.f64(m.level_jitter_mps);
  out.f64(m.vs_max_mps);
  out.f64(m.t_min_s);
  out.f64(m.t_max_s);
  out.f64(m.r_sigma_m);
  out.f64(m.y_sigma_m);
  out.array<double>(m.ranges.lo);
  out.array<double>(m.ranges.hi);
}

encounter::StatisticalModelConfig decode_model_config(ByteReader& in) {
  encounter::StatisticalModelConfig m;
  m.gs_mean_mps = in.f64();
  m.gs_sigma_mps = in.f64();
  m.p_level = in.f64();
  m.level_jitter_mps = in.f64();
  m.vs_max_mps = in.f64();
  m.t_min_s = in.f64();
  m.t_max_s = in.f64();
  m.r_sigma_m = in.f64();
  m.y_sigma_m = in.f64();
  const auto lo = in.array<double>();
  const auto hi = in.array<double>();
  if (lo.size() != encounter::kNumParams || hi.size() != encounter::kNumParams) {
    throw ProtocolError("bad parameter range size");
  }
  std::copy(lo.begin(), lo.end(), m.ranges.lo.begin());
  std::copy(hi.begin(), hi.end(), m.ranges.hi.begin());
  return m;
}

void encode_cas_spec(ByteWriter& out, const CasSpec& c) {
  out.u32(static_cast<std::uint32_t>(c.kind));
  out.str(c.pair_image);
  out.str(c.joint_image);
}

CasSpec decode_cas_spec(ByteReader& in) {
  CasSpec c;
  const std::uint32_t kind = in.u32();
  if (kind > static_cast<std::uint32_t>(CasKind::kAcasXu)) throw ProtocolError("bad CAS kind");
  c.kind = static_cast<CasKind>(kind);
  c.pair_image = in.str();
  c.joint_image = in.str();
  return c;
}

}  // namespace

sim::CasFactory materialize_cas(const CasSpec& spec) {
  switch (spec.kind) {
    case CasKind::kUnequipped:
      return {};
    case CasKind::kTcasLike:
      return baselines::TcasLikeCas::factory();
    case CasKind::kSvo:
      return baselines::SvoCas::factory();
    case CasKind::kAcasXu: {
      auto table = std::make_shared<const acasx::LogicTable>(
          acasx::LogicTable::open_mapped(spec.pair_image));
      std::shared_ptr<const acasx::JointLogicTable> joint;
      if (!spec.joint_image.empty()) {
        joint = std::make_shared<const acasx::JointLogicTable>(
            acasx::JointLogicTable::open_mapped(spec.joint_image));
      }
      return sim::AcasXuCas::factory(std::move(table), {}, {}, {}, std::move(joint));
    }
  }
  throw ProtocolError("bad CAS kind");
}

core::ValidationCampaign materialize_campaign(const CampaignSpec& spec) {
  // Own-ship and intruder usually fly the same image: one shared factory
  // means one open, one checksum pass and one mapping.
  sim::CasFactory own = materialize_cas(spec.own_cas);
  sim::CasFactory intruder =
      spec.intruder_cas == spec.own_cas ? own : materialize_cas(spec.intruder_cas);
  return core::ValidationCampaign(encounter::StatisticalEncounterModel(spec.model), spec.config,
                                  spec.system_name, std::move(own), std::move(intruder));
}

void encode_campaign_spec(ByteWriter& out, const CampaignSpec& spec) {
  encode_model_config(out, spec.model);
  const core::MonteCarloConfig& c = spec.config;
  out.u64(c.encounters);
  out.u64(c.intruders);
  encode_sim_config(out, c.sim);
  out.f64(c.sim_time_margin_s);
  out.u64(c.seed);
  out.f64(c.equipage_fraction);
  out.u32(static_cast<std::uint32_t>(c.unequipped_behavior));
  out.u8(c.own_fault.has_value() ? 1 : 0);
  if (c.own_fault) encode_fault_profile(out, *c.own_fault);
  out.u8(c.intruder_fault.has_value() ? 1 : 0);
  if (c.intruder_fault) encode_fault_profile(out, *c.intruder_fault);
  out.str(spec.system_name);
  encode_cas_spec(out, spec.own_cas);
  encode_cas_spec(out, spec.intruder_cas);
}

CampaignSpec decode_campaign_spec(ByteReader& in) {
  CampaignSpec spec;
  spec.model = decode_model_config(in);
  core::MonteCarloConfig& c = spec.config;
  c.encounters = static_cast<std::size_t>(in.u64());
  c.intruders = static_cast<std::size_t>(in.u64());
  c.sim = decode_sim_config(in);
  c.sim_time_margin_s = in.f64();
  c.seed = in.u64();
  c.equipage_fraction = in.f64();
  const std::uint32_t behavior = in.u32();
  if (behavior > static_cast<std::uint32_t>(core::UnequippedBehavior::kManeuverAtCpa)) {
    throw ProtocolError("bad unequipped behavior");
  }
  c.unequipped_behavior = static_cast<core::UnequippedBehavior>(behavior);
  if (in.u8() != 0) c.own_fault = decode_fault_profile(in);
  if (in.u8() != 0) c.intruder_fault = decode_fault_profile(in);
  spec.system_name = in.str();
  spec.own_cas = decode_cas_spec(in);
  spec.intruder_cas = decode_cas_spec(in);
  return spec;
}

void encode_stripe(ByteWriter& out, const core::EncounterStripe& stripe) {
  out.u64(stripe.seed);
  out.u64(stripe.begin);
  out.u64(stripe.end);
}

core::EncounterStripe decode_stripe(ByteReader& in) {
  core::EncounterStripe stripe;
  stripe.seed = in.u64();
  stripe.begin = static_cast<std::size_t>(in.u64());
  stripe.end = static_cast<std::size_t>(in.u64());
  if (stripe.end < stripe.begin) throw ProtocolError("bad stripe range");
  return stripe;
}

void encode_stripe_result(ByteWriter& out, const core::StripeResult& result) {
  out.u64(result.first_cell);
  out.u64(result.cells.size());
  for (const core::StripeCell& cell : result.cells) {
    out.u64(cell.nmacs);
    out.u64(cell.alerts);
    out.f64(cell.sep_sum);
    out.f64(cell.wall_s);
  }
}

core::StripeResult decode_stripe_result(ByteReader& in) {
  core::StripeResult result;
  result.first_cell = static_cast<std::size_t>(in.u64());
  const std::uint64_t n = in.u64();
  if (n > in.remaining() / (4 * sizeof(std::uint64_t))) {
    throw ProtocolError("stripe cells overrun");
  }
  result.cells.resize(static_cast<std::size_t>(n));
  for (core::StripeCell& cell : result.cells) {
    cell.nmacs = in.u64();
    cell.alerts = in.u64();
    cell.sep_sum = in.f64();
    cell.wall_s = in.f64();
  }
  return result;
}

}  // namespace cav::dist
