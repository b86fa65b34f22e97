// The value storage and image codec shared by both ACAS tables
// (LogicTable, JointLogicTable).
//
// A QStore either OWNS its values (a solve's output, or a load() that
// copies and dequantizes an image) or is a zero-copy VIEW over an
// mmap-backed serving::TableImage, in which case N processes opening the
// same image share one physical copy of the payload.  values() is the one
// read path, so the two modes are indistinguishable to queries.
//
// MetaWriter / MetaReader are the config codec of the image's meta slabs.
// Both tables lay them out the same way: each grid axis appends (lo, hi)
// to meta_f64 and its count to meta_u64, table-specific fields follow,
// and meta_f64 ends with the dynamics (4) and cost (8) blocks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "acasx/config.h"
#include "util/grid.h"

namespace cav::serving {
class TableImage;
class TableImageWriter;
}

namespace cav::acasx {

class QStore {
 public:
  QStore() = default;
  /// An owning store of `count` zeros: a solver's write target.  Its pages
  /// are prefaulted in one call (util/pages.h), not one fault per page.
  explicit QStore(std::size_t count);

  /// Throws serving::TableIoError(op, "wrong table kind") unless `image`
  /// is of `kind`.
  static void expect_kind(const serving::TableImage& image, std::string_view kind,
                          const char* op);
  /// An owning copy of `image`'s payload, dequantized when it is f16 or
  /// int8 (lossy, by design).  Throws TableIoError unless it holds
  /// exactly `count` values.
  static QStore copy_of(const serving::TableImage& image, std::size_t count, const char* op);
  /// A zero-copy view of `image`'s payload that keeps the image alive.
  /// Throws TableIoError unless the payload is unquantized (f32) and
  /// holds exactly `count` values.
  static QStore view_of(std::shared_ptr<const serving::TableImage> image, std::size_t count,
                        const char* op);

  /// The payload, owning or mapped — the serving kernel's view.
  const float* values() const { return view_ != nullptr ? view_ : q_.data(); }
  std::size_t size() const { return view_ != nullptr ? view_size_ : q_.size(); }
  bool is_mapped() const { return view_ != nullptr; }

  /// The owned vector (throws on a mapped view).
  std::vector<float>& raw();
  const std::vector<float>& raw() const;

 private:
  std::vector<float> q_;
  // Set only on views: the pointer targets image_'s mapping, so default
  // copy/move keep it valid (the image is shared).
  const float* view_ = nullptr;
  std::size_t view_size_ = 0;
  std::shared_ptr<const serving::TableImage> image_;
};

/// Builds a table image's meta slabs field by field.
class MetaWriter {
 public:
  void axis(const UniformAxis& axis);
  void f64(double value) { f64_.push_back(value); }
  void u64(std::uint64_t value) { u64_.push_back(value); }
  /// The closing dynamics and cost blocks.
  void model(const DynamicsConfig& dynamics, const CostModel& costs);
  /// Append the meta_f64 and meta_u64 slabs to `writer`.
  void write(serving::TableImageWriter& writer) const;

 private:
  std::vector<double> f64_;
  std::vector<std::uint64_t> u64_;
};

/// Reads a table image's meta slabs back in the order MetaWriter wrote
/// them.  Throws TableIoError(op, "bad meta slab") unless they hold
/// exactly `f64_count` doubles and `u64_count` counts.
class MetaReader {
 public:
  MetaReader(const serving::TableImage& image, std::size_t f64_count, std::size_t u64_count,
             const char* op);
  UniformAxis axis();
  double f64() { return f64_[f64_next_++]; }
  std::uint64_t u64() { return u64_[u64_next_++]; }
  void model(DynamicsConfig& dynamics, CostModel& costs);

 private:
  std::span<const double> f64_;
  std::span<const std::uint64_t> u64_;
  std::size_t f64_next_ = 0;
  std::size_t u64_next_ = 0;
};

/// Number of meta_f64 values model() writes and reads.
inline constexpr std::size_t kModelMetaF64 = 4 + 8;

}  // namespace cav::acasx
