#include "acasx/stencil_image.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "acasx/advisory.h"
#include "acasx/logic_table.h"
#include "serving/table_image.h"
#include "util/expect.h"

namespace cav::acasx {
namespace {

using serving::TableImage;
using serving::TableImageWriter;
using serving::TableIoError;

/// Slab-name prefix of secondary-sense class k ("s0.", "s1.", ...).  Built
/// by appending: GCC 12 at -O3 raises a false -Wrestrict on the equivalent
/// `"s" + std::to_string(k) + "."`.
std::string sense_prefix(std::size_t k) {
  std::string prefix = "s";
  prefix += std::to_string(k);
  prefix += '.';
  return prefix;
}

void add_stencil_slabs(TableImageWriter& writer, std::string_view prefix,
                       const StencilSet& stencils) {
  const auto name = [&](std::string_view slab) { return std::string(prefix) + std::string(slab); };
  writer.add_slab(name("group_offsets"), stencils.group_offsets);
  writer.add_slab(name("group_weight"), stencils.group_weight);
  writer.add_slab(name("entry_offsets"), stencils.entry_offsets);
  writer.add_slab(name("vertex"), stencils.vertex);
  writer.add_slab(name("weight"), stencils.weight);
}

/// View + validate one stencil set out of a mapped image.  `num_points`
/// is the grid size the embedded config implies; anything inconsistent —
/// wrong row count, non-monotone offsets, dangling ranges, out-of-grid
/// vertices — throws rather than letting the sweep kernel read garbage.
StencilSet view_stencil_slabs(const std::shared_ptr<const TableImage>& image,
                              std::string_view prefix, std::size_t num_points) {
  const auto name = [&](std::string_view slab) { return std::string(prefix) + std::string(slab); };
  StencilSet s;
  s.group_offsets = image->slab_as<std::uint64_t>(name("group_offsets"));
  s.group_weight = image->slab_as<double>(name("group_weight"));
  s.entry_offsets = image->slab_as<std::uint64_t>(name("entry_offsets"));
  s.vertex = image->slab_as<std::uint32_t>(name("vertex"));
  s.weight = image->slab_as<double>(name("weight"));
  s.storage = image;

  const auto fail = [&](const char* reason) {
    throw TableIoError("open_stencil_image", reason, image->path());
  };
  const std::size_t num_rows = num_points * kNumAdvisories;
  if (s.group_offsets.size() != num_rows + 1) fail("stencils do not match the config grid");
  if (s.group_offsets.front() != 0 || s.entry_offsets.empty() || s.entry_offsets.front() != 0) {
    fail("offset slab does not start at zero");
  }
  if (s.group_offsets.back() != s.group_weight.size() ||
      s.entry_offsets.size() != s.group_weight.size() + 1 ||
      s.entry_offsets.back() != s.vertex.size() || s.vertex.size() != s.weight.size()) {
    fail("stencil slab sizes are inconsistent");
  }
  for (std::size_t r = 0; r < num_rows; ++r) {
    if (s.group_offsets[r] > s.group_offsets[r + 1]) fail("group offsets not monotone");
  }
  for (std::size_t j = 0; j < s.group_weight.size(); ++j) {
    if (s.entry_offsets[j] > s.entry_offsets[j + 1]) fail("entry offsets not monotone");
  }
  for (const std::uint32_t v : s.vertex) {
    if (v >= num_points) fail("stencil vertex outside the config grid");
  }
  return s;
}

}  // namespace

void save_stencil_image(const std::string& path, const AcasXuConfig& config,
                        const StencilSet& stencils) {
  expect(stencils.group_offsets.size() == config.space.grid().size() * kNumAdvisories + 1,
         "stencils were built for this config");
  TableImageWriter writer(path, kKindPairStencils);
  LogicTable::encode_config(config, writer);
  add_stencil_slabs(writer, "", stencils);
  writer.finish();
}

StencilSet open_stencil_image(const std::string& path, AcasXuConfig* config_out) {
  expect(config_out != nullptr, "open_stencil_image needs a config out-param");
  auto image = std::make_shared<const TableImage>(TableImage::open(path));
  if (image->kind_name() != kKindPairStencils) {
    throw TableIoError("open_stencil_image", "wrong table kind", path);
  }
  *config_out = LogicTable::decode_config(*image);
  return view_stencil_slabs(image, "", config_out->space.grid().size());
}

void save_joint_stencil_image(const std::string& path, const JointConfig& config,
                              std::span<const StencilSet> per_sense) {
  expect(per_sense.size() == kNumSecondarySenses, "one stencil set per sense class");
  const std::size_t num_points = config.grid().size();
  for (const StencilSet& s : per_sense) {
    expect(s.group_offsets.size() == num_points * kNumAdvisories + 1,
           "stencils were built for this config");
  }
  TableImageWriter writer(path, kKindJointStencils);
  JointLogicTable::encode_config(config, writer);
  for (std::size_t k = 0; k < per_sense.size(); ++k) {
    add_stencil_slabs(writer, sense_prefix(k), per_sense[k]);
  }
  writer.finish();
}

std::array<StencilSet, kNumSecondarySenses> open_joint_stencil_image(const std::string& path,
                                                                     JointConfig* config_out) {
  expect(config_out != nullptr, "open_joint_stencil_image needs a config out-param");
  auto image = std::make_shared<const TableImage>(TableImage::open(path));
  if (image->kind_name() != kKindJointStencils) {
    throw TableIoError("open_joint_stencil_image", "wrong table kind", path);
  }
  *config_out = JointLogicTable::decode_config(*image);
  const std::size_t num_points = config_out->grid().size();
  std::array<StencilSet, kNumSecondarySenses> sets;
  for (std::size_t k = 0; k < kNumSecondarySenses; ++k) {
    sets[k] = view_stencil_slabs(image, sense_prefix(k), num_points);
  }
  return sets;
}

}  // namespace cav::acasx
