#include "acasx/q_store.h"

#include <array>
#include <utility>

#include "serving/table_codec.h"
#include "serving/table_image.h"
#include "util/expect.h"
#include "util/pages.h"

namespace cav::acasx {

using serving::TableIoError;

namespace {

/// The dynamics and cost fields in meta_f64 order (kModelMetaF64 of them;
/// pointers to const for the writer).
template <typename Dynamics, typename Costs>
auto model_fields(Dynamics& d, Costs& c) {
  return std::array{&d.dt_s,
                    &d.accel_initial_fps2,
                    &d.accel_strength_fps2,
                    &d.accel_noise_sigma_fps2,
                    &c.nmac_cost,
                    &c.nmac_h_ft,
                    &c.maneuver_cost,
                    &c.strengthened_maneuver_cost,
                    &c.level_reward,
                    &c.strengthen_cost,
                    &c.reversal_cost,
                    &c.termination_cost};
}

}  // namespace

QStore::QStore(std::size_t count) { resize_prefaulted(q_, count); }

void QStore::expect_kind(const serving::TableImage& image, std::string_view kind,
                         const char* op) {
  if (image.kind_name() != kind) throw TableIoError(op, "wrong table kind", image.path());
}

QStore QStore::copy_of(const serving::TableImage& image, std::size_t count, const char* op) {
  const serving::ValueSlabs values = serving::open_value_slabs(image);
  if (values.count != count) throw TableIoError(op, "size mismatch", image.path());
  QStore store;
  store.q_ = serving::dequantize_values(values);
  return store;
}

QStore QStore::view_of(std::shared_ptr<const serving::TableImage> image, std::size_t count,
                       const char* op) {
  const serving::ValueSlabs values = serving::open_value_slabs(*image);
  if (values.quant != serving::Quantization::kNone) {
    throw TableIoError(op, "quantized image (use load())", image->path());
  }
  if (values.count != count) throw TableIoError(op, "size mismatch", image->path());
  QStore store;
  store.view_ = values.f32;
  store.view_size_ = values.count;
  store.image_ = std::move(image);
  return store;
}

std::vector<float>& QStore::raw() {
  expect(view_ == nullptr, "owning table (mapped views are read-only)");
  return q_;
}

const std::vector<float>& QStore::raw() const {
  expect(view_ == nullptr, "owning table (mapped views have no vector)");
  return q_;
}

void MetaWriter::axis(const UniformAxis& axis) {
  f64_.push_back(axis.lo());
  f64_.push_back(axis.hi());
  u64_.push_back(axis.count());
}

void MetaWriter::model(const DynamicsConfig& dynamics, const CostModel& costs) {
  for (const double* field : model_fields(dynamics, costs)) f64_.push_back(*field);
}

void MetaWriter::write(serving::TableImageWriter& writer) const {
  writer.add_slab(serving::kSlabMetaF64, std::span<const double>(f64_));
  writer.add_slab(serving::kSlabMetaU64, std::span<const std::uint64_t>(u64_));
}

MetaReader::MetaReader(const serving::TableImage& image, std::size_t f64_count,
                       std::size_t u64_count, const char* op)
    : f64_(image.slab_as<double>(serving::kSlabMetaF64)),
      u64_(image.slab_as<std::uint64_t>(serving::kSlabMetaU64)) {
  if (f64_.size() != f64_count || u64_.size() != u64_count) {
    throw TableIoError(op, "bad meta slab", image.path());
  }
}

UniformAxis MetaReader::axis() {
  const double lo = f64();
  const double hi = f64();
  return UniformAxis(lo, hi, static_cast<std::size_t>(u64()));
}

void MetaReader::model(DynamicsConfig& dynamics, CostModel& costs) {
  for (double* field : model_fields(dynamics, costs)) *field = f64();
}

}  // namespace cav::acasx
