#include "acasx/joint_table.h"

#include <algorithm>
#include <utility>

#include "serving/kernel.h"
#include "serving/table_codec.h"
#include "serving/table_image.h"
#include "util/expect.h"
#include "util/units.h"

namespace cav::acasx {

// meta_f64: 4 axes x (lo, hi), secondary x 3, dynamics x 4, costs x 8.
// meta_u64: 4 axis counts, tau_max, num_delta_bins.
JointConfig JointLogicTable::decode_config(const serving::TableImage& image) {
  MetaReader meta(image, 4 * 2 + 3 + kModelMetaF64, 4 + 2, "JointLogicTable::load");
  JointConfig c;
  c.space.h_ft = meta.axis();
  c.space.dh_own_fps = meta.axis();
  c.space.dh_int_fps = meta.axis();
  c.secondary.h2_ft = meta.axis();
  c.space.tau_max = static_cast<std::size_t>(meta.u64());
  c.secondary.num_delta_bins = static_cast<std::size_t>(meta.u64());
  c.secondary.delta_step_s = meta.f64();
  c.secondary.sense_rate_fps = meta.f64();
  c.secondary.sense_level_threshold_fps = meta.f64();
  meta.model(c.dynamics, c.costs);
  return c;
}

JointConfig JointConfig::coarse() {
  JointConfig c;
  c.space = StateSpaceConfig::coarse();
  c.space.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  c.space.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  return c;
}

JointConfig JointConfig::standard() {
  JointConfig c;
  c.space = StateSpaceConfig::standard();
  c.space.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 7);
  c.space.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 7);
  return c;
}

JointLogicTable::JointLogicTable(const JointConfig& config)
    : JointLogicTable(config, QStore(entry_count(config))) {}

JointLogicTable::JointLogicTable(const JointConfig& config, QStore store)
    : config_(config), grid_(config.grid()), store_(std::move(store)) {}

std::size_t JointLogicTable::entry_count(const JointConfig& config) {
  return config.secondary.num_slabs() * (config.space.tau_max + 1) * config.grid().size() *
         kNumAdvisories * kNumAdvisories;
}

void JointLogicTable::action_costs(double tau1_s, double delta_s, double h1_ft,
                                   double dh_own_fps, double dh_int1_fps, double h2_ft,
                                   SecondarySense sense, Advisory ra,
                                   std::span<double, kNumAdvisories> out) const {
  expect(num_entries() != 0, "joint table is solved/loaded");
  serving::grid_query<kNumAdvisories>(
      serving::F32View{values()}, grid_,
      locate(config_, tau1_s, delta_s, h1_ft, dh_own_fps, dh_int1_fps, h2_ft, sense, ra),
      out.data());
}

void JointLogicTable::save(const std::string& path, serving::Quantization quant) const {
  serving::TableImageWriter writer(path, serving::kKindJoint);
  MetaWriter meta;
  meta.axis(config_.space.h_ft);
  meta.axis(config_.space.dh_own_fps);
  meta.axis(config_.space.dh_int_fps);
  meta.axis(config_.secondary.h2_ft);
  meta.u64(config_.space.tau_max);
  meta.u64(config_.secondary.num_delta_bins);
  meta.f64(config_.secondary.delta_step_s);
  meta.f64(config_.secondary.sense_rate_fps);
  meta.f64(config_.secondary.sense_level_threshold_fps);
  meta.model(config_.dynamics, config_.costs);
  meta.write(writer);
  serving::write_value_slabs(writer, {values(), num_entries()}, quant);
  writer.finish();
}

JointLogicTable JointLogicTable::load(const std::string& path) {
  const serving::TableImage image = serving::TableImage::open(path);
  QStore::expect_kind(image, serving::kKindJoint, "JointLogicTable::load");
  const JointConfig config = decode_config(image);
  return {config, QStore::copy_of(image, entry_count(config), "JointLogicTable::load")};
}

JointLogicTable JointLogicTable::open_mapped(const std::string& path) {
  return open_mapped(
      std::make_shared<const serving::TableImage>(serving::TableImage::open(path)));
}

JointLogicTable JointLogicTable::open_mapped(std::shared_ptr<const serving::TableImage> image) {
  QStore::expect_kind(*image, serving::kKindJoint, "JointLogicTable::open_mapped");
  const JointConfig config = decode_config(*image);
  return {config, QStore::view_of(std::move(image), entry_count(config),
                                  "JointLogicTable::open_mapped")};
}

void joint_action_costs(const JointLogicTable& table, const AircraftTrack& own,
                        const AircraftTrack& a, const AircraftTrack& b, Advisory ra,
                        const OnlineConfig& online, bool* active,
                        std::span<double, kNumAdvisories> out) {
  const TauEstimate tau_a = AcasXuLogic::estimate_tau(own, a, online);
  const TauEstimate tau_b = AcasXuLogic::estimate_tau(own, b, online);
  const bool a_active = tau_a.converging && tau_a.tau_s <= online.tau_alert_max_s;
  const bool b_active = tau_b.converging && tau_b.tau_s <= online.tau_alert_max_s;
  if (!a_active || !b_active) {
    *active = false;
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  *active = true;

  // Deterministic primary selection: smaller tau first, ties broken on the
  // relative state (so swapping a and b can never change the result).
  const double ha = units::m_to_ft(a.position_m.z - own.position_m.z);
  const double hb = units::m_to_ft(b.position_m.z - own.position_m.z);
  const double dha = units::m_to_ft(a.velocity_mps.z);
  const double dhb = units::m_to_ft(b.velocity_mps.z);
  bool a_primary = tau_a.tau_s < tau_b.tau_s;
  if (tau_a.tau_s == tau_b.tau_s) {
    a_primary = (ha != hb) ? ha < hb : dha <= dhb;
  }

  const double tau1 = a_primary ? tau_a.tau_s : tau_b.tau_s;
  const double delta = (a_primary ? tau_b.tau_s : tau_a.tau_s) - tau1;
  const double h1 = a_primary ? ha : hb;
  const double dh_int1 = a_primary ? dha : dhb;
  const double h2 = a_primary ? hb : ha;
  const double dh2 = a_primary ? dhb : dha;
  const double dh_own = units::m_to_ft(own.velocity_mps.z);

  table.action_costs(tau1, delta, h1, dh_own, dh_int1, h2,
                     table.config().secondary.sense_of_rate(dh2), ra, out);
}

std::array<double, kNumAdvisories> joint_action_costs(const JointLogicTable& table,
                                                      const AircraftTrack& own,
                                                      const AircraftTrack& a,
                                                      const AircraftTrack& b, Advisory ra,
                                                      const OnlineConfig& online, bool* active) {
  std::array<double, kNumAdvisories> costs{};
  joint_action_costs(table, own, a, b, ra, online, active, costs);
  return costs;
}

}  // namespace cav::acasx
