#include "acasx/logic_table.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "serving/kernel.h"
#include "serving/table_codec.h"
#include "serving/table_image.h"
#include "util/expect.h"

namespace cav::acasx {
namespace {

using serving::TableIoError;

// meta_f64 layout: 3 axes x (lo, hi), dynamics x 4, costs x 8.
constexpr std::size_t kMetaF64Count = 3 * 2 + 4 + 8;
// meta_u64 layout: 3 axis counts, tau_max.
constexpr std::size_t kMetaU64Count = 3 + 1;

void encode_meta(const AcasXuConfig& c, double* f64, std::uint64_t* u64) {
  const UniformAxis* axes[3] = {&c.space.h_ft, &c.space.dh_own_fps, &c.space.dh_int_fps};
  for (std::size_t i = 0; i < 3; ++i) {
    f64[2 * i] = axes[i]->lo();
    f64[2 * i + 1] = axes[i]->hi();
    u64[i] = axes[i]->count();
  }
  u64[3] = c.space.tau_max;
  double* d = f64 + 6;
  d[0] = c.dynamics.dt_s;
  d[1] = c.dynamics.accel_initial_fps2;
  d[2] = c.dynamics.accel_strength_fps2;
  d[3] = c.dynamics.accel_noise_sigma_fps2;
  double* k = f64 + 10;
  k[0] = c.costs.nmac_cost;
  k[1] = c.costs.nmac_h_ft;
  k[2] = c.costs.maneuver_cost;
  k[3] = c.costs.strengthened_maneuver_cost;
  k[4] = c.costs.level_reward;
  k[5] = c.costs.strengthen_cost;
  k[6] = c.costs.reversal_cost;
  k[7] = c.costs.termination_cost;
}

AcasXuConfig decode_meta(const serving::TableImage& image) {
  const auto f64 = image.slab_as<double>(serving::kSlabMetaF64);
  const auto u64 = image.slab_as<std::uint64_t>(serving::kSlabMetaU64);
  if (f64.size() != kMetaF64Count || u64.size() != kMetaU64Count) {
    throw TableIoError("LogicTable::load", "bad meta slab", image.path());
  }
  AcasXuConfig c;
  c.space.h_ft = UniformAxis(f64[0], f64[1], static_cast<std::size_t>(u64[0]));
  c.space.dh_own_fps = UniformAxis(f64[2], f64[3], static_cast<std::size_t>(u64[1]));
  c.space.dh_int_fps = UniformAxis(f64[4], f64[5], static_cast<std::size_t>(u64[2]));
  c.space.tau_max = static_cast<std::size_t>(u64[3]);
  c.dynamics.dt_s = f64[6];
  c.dynamics.accel_initial_fps2 = f64[7];
  c.dynamics.accel_strength_fps2 = f64[8];
  c.dynamics.accel_noise_sigma_fps2 = f64[9];
  c.costs.nmac_cost = f64[10];
  c.costs.nmac_h_ft = f64[11];
  c.costs.maneuver_cost = f64[12];
  c.costs.strengthened_maneuver_cost = f64[13];
  c.costs.level_reward = f64[14];
  c.costs.strengthen_cost = f64[15];
  c.costs.reversal_cost = f64[16];
  c.costs.termination_cost = f64[17];
  return c;
}

}  // namespace

AcasXuConfig LogicTable::decode_config(const serving::TableImage& image) {
  return decode_meta(image);
}

LogicTable::LogicTable(const AcasXuConfig& config)
    : config_(config),
      grid_(config.space.grid()) {
  const std::size_t n =
      num_tau_layers() * grid_.size() * kNumAdvisories * kNumAdvisories;
  q_.assign(n, 0.0F);
}

void LogicTable::action_costs(double tau_s, double h_ft, double dh_own_fps, double dh_int_fps,
                              Advisory ra, std::span<double, kNumAdvisories> out) const {
  expect(num_entries() != 0, "logic table is solved/loaded");
  const serving::TauBracket t = serving::bracket_tau(tau_s, config_.space.tau_max);
  serving::grid_query<kNumAdvisories>(serving::F32View{values()}, grid_,
                                      {h_ft, dh_own_fps, dh_int_fps}, 0, t,
                                      static_cast<std::size_t>(ra), out.data());
}

std::vector<float>& LogicTable::raw() {
  expect(view_ == nullptr, "owning table (mapped views are read-only)");
  return q_;
}

const std::vector<float>& LogicTable::raw() const {
  expect(view_ == nullptr, "owning table (mapped views have no vector)");
  return q_;
}

void LogicTable::encode_config(const AcasXuConfig& config, serving::TableImageWriter& writer) {
  double meta_f64[kMetaF64Count];
  std::uint64_t meta_u64[kMetaU64Count];
  encode_meta(config, meta_f64, meta_u64);
  writer.add_slab(serving::kSlabMetaF64, serving::SlabType::kF64, meta_f64, sizeof meta_f64);
  writer.add_slab(serving::kSlabMetaU64, serving::SlabType::kU64, meta_u64, sizeof meta_u64);
}

void LogicTable::save(const std::string& path, serving::Quantization quant) const {
  serving::TableImageWriter writer(path, serving::kKindPairwise);
  encode_config(config_, writer);
  serving::write_value_slabs(writer, {values(), num_entries()}, quant);
  writer.finish();
}

LogicTable LogicTable::load(const std::string& path) {
  serving::TableImage image = serving::TableImage::open(path);
  if (image.kind_name() != serving::kKindPairwise) {
    throw TableIoError("LogicTable::load", "wrong table kind", path);
  }
  LogicTable table(decode_meta(image));
  const serving::ValueSlabs values = serving::open_value_slabs(image);
  if (values.count != table.q_.size()) {
    throw TableIoError("LogicTable::load", "size mismatch", path);
  }
  table.q_ = serving::dequantize_values(values);
  return table;
}

LogicTable LogicTable::open_mapped(const std::string& path) {
  return open_mapped(
      std::make_shared<const serving::TableImage>(serving::TableImage::open(path)));
}

LogicTable LogicTable::open_mapped(std::shared_ptr<const serving::TableImage> image) {
  const std::string& path = image->path();
  if (image->kind_name() != serving::kKindPairwise) {
    throw TableIoError("LogicTable::open_mapped", "wrong table kind", path);
  }
  const serving::ValueSlabs values = serving::open_value_slabs(*image);
  if (values.quant != serving::Quantization::kNone) {
    throw TableIoError("LogicTable::open_mapped", "quantized image (use load())", path);
  }

  LogicTable table;
  table.config_ = decode_meta(*image);
  table.grid_ = table.config_.space.grid();
  const std::size_t expected = table.num_tau_layers() * table.grid_.size() *
                               kNumAdvisories * kNumAdvisories;
  if (values.count != expected) {
    throw TableIoError("LogicTable::open_mapped", "size mismatch", path);
  }
  table.view_ = values.f32;
  table.view_size_ = values.count;
  table.image_ = std::move(image);
  return table;
}

}  // namespace cav::acasx
