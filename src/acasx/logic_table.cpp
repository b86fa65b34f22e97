#include "acasx/logic_table.h"

#include <utility>

#include "serving/kernel.h"
#include "serving/table_codec.h"
#include "serving/table_image.h"
#include "util/expect.h"

namespace cav::acasx {

// meta_f64: 3 axes x (lo, hi), dynamics x 4, costs x 8.
// meta_u64: 3 axis counts, tau_max.
AcasXuConfig LogicTable::decode_config(const serving::TableImage& image) {
  MetaReader meta(image, 3 * 2 + kModelMetaF64, 3 + 1, "LogicTable::load");
  AcasXuConfig c;
  c.space.h_ft = meta.axis();
  c.space.dh_own_fps = meta.axis();
  c.space.dh_int_fps = meta.axis();
  c.space.tau_max = static_cast<std::size_t>(meta.u64());
  meta.model(c.dynamics, c.costs);
  return c;
}

LogicTable::LogicTable(const AcasXuConfig& config)
    : LogicTable(config, QStore(entry_count(config))) {}

LogicTable::LogicTable(const AcasXuConfig& config, QStore store)
    : config_(config), grid_(config.space.grid()), store_(std::move(store)) {}

std::size_t LogicTable::entry_count(const AcasXuConfig& config) {
  return (config.space.tau_max + 1) * config.space.grid().size() * kNumAdvisories *
         kNumAdvisories;
}

void LogicTable::action_costs(double tau_s, double h_ft, double dh_own_fps, double dh_int_fps,
                              Advisory ra, std::span<double, kNumAdvisories> out) const {
  expect(num_entries() != 0, "logic table is solved/loaded");
  serving::grid_query<kNumAdvisories>(
      serving::F32View{values()}, grid_,
      locate(config_, tau_s, h_ft, dh_own_fps, dh_int_fps, ra), out.data());
}

void LogicTable::save(const std::string& path, serving::Quantization quant) const {
  serving::TableImageWriter writer(path, serving::kKindPairwise);
  MetaWriter meta;
  meta.axis(config_.space.h_ft);
  meta.axis(config_.space.dh_own_fps);
  meta.axis(config_.space.dh_int_fps);
  meta.u64(config_.space.tau_max);
  meta.model(config_.dynamics, config_.costs);
  meta.write(writer);
  serving::write_value_slabs(writer, {values(), num_entries()}, quant);
  writer.finish();
}

LogicTable LogicTable::load(const std::string& path) {
  const serving::TableImage image = serving::TableImage::open(path);
  QStore::expect_kind(image, serving::kKindPairwise, "LogicTable::load");
  const AcasXuConfig config = decode_config(image);
  return {config, QStore::copy_of(image, entry_count(config), "LogicTable::load")};
}

LogicTable LogicTable::open_mapped(const std::string& path) {
  return open_mapped(
      std::make_shared<const serving::TableImage>(serving::TableImage::open(path)));
}

LogicTable LogicTable::open_mapped(std::shared_ptr<const serving::TableImage> image) {
  QStore::expect_kind(*image, serving::kKindPairwise, "LogicTable::open_mapped");
  const AcasXuConfig config = decode_config(*image);
  return {config,
          QStore::view_of(std::move(image), entry_count(config), "LogicTable::open_mapped")};
}

}  // namespace cav::acasx
