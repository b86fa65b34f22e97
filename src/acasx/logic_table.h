// The generated "logic table" — the paper's central artifact: a look-up
// table of expected costs over the discretized encounter state space,
// produced offline by dynamic programming and interpolated online.
//
// Layout: q[tau][h][dh_own][dh_int][ra][action], row-major with action
// fastest.  Values are float to keep the standard table ~38 MB.
//
// Storage: one acasx::QStore (acasx/q_store.h), shared with
// JointLogicTable.  A table either OWNS its values (solved in memory, or
// load()ed with a copy/dequantization) or is a zero-copy VIEW over an
// mmap-backed serving::TableImage (open_mapped()), in which case N
// processes opening the same image share one physical copy of the
// payload.  Every query goes through values(); the two modes are
// indistinguishable to callers.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "acasx/advisory.h"
#include "acasx/config.h"
#include "acasx/q_store.h"
#include "serving/kernel.h"
#include "serving/quantize.h"
#include "util/expect.h"
#include "util/grid.h"

namespace cav::acasx {

class LogicTable {
 public:
  LogicTable() = default;
  explicit LogicTable(const AcasXuConfig& config);

  const AcasXuConfig& config() const { return config_; }
  const GridN<3>& grid() const { return grid_; }  ///< (h, dh_own, dh_int)

  std::size_t num_tau_layers() const { return config_.space.tau_max + 1; }
  std::size_t num_grid_points() const { return grid_.size(); }
  /// Total stored Q entries (tau layers x grid x ra x action).
  std::size_t num_entries() const { return store_.size(); }

  /// Flat index of (tau, grid point, ra, action).
  std::size_t index(std::size_t tau, std::size_t grid_flat, Advisory ra, Advisory action) const {
    return ((tau * grid_.size() + grid_flat) * kNumAdvisories +
            static_cast<std::size_t>(ra)) * kNumAdvisories +
           static_cast<std::size_t>(action);
  }

  float at(std::size_t tau, std::size_t grid_flat, Advisory ra, Advisory action) const {
    return values()[index(tau, grid_flat, ra, action)];
  }

  /// Interpolated per-action costs at a continuous state.  tau_s is clamped
  /// to [0, tau_max] and interpolated linearly between integer layers; the
  /// (h, dh_own, dh_int) point is interpolated multilinearly (clamped at
  /// the grid boundary).  A NaN field or an `ra` outside the enum throws
  /// ContractViolation (see locate()).  The span overload is the real
  /// entry point — the same serving kernel the batched PolicyServer runs
  /// (batch-of-one is bit-identical by construction); the array form is a
  /// thin wrapper.
  void action_costs(double tau_s, double h_ft, double dh_own_fps, double dh_int_fps, Advisory ra,
                    std::span<double, kNumAdvisories> out) const;
  std::array<double, kNumAdvisories> action_costs(double tau_s, double h_ft, double dh_own_fps,
                                                  double dh_int_fps, Advisory ra) const {
    std::array<double, kNumAdvisories> costs{};
    action_costs(tau_s, h_ft, dh_own_fps, dh_int_fps, ra, costs);
    return costs;
  }

  /// Locate a query on a table of `config` for the serving kernel
  /// (serving/kernel.h): grid point, tau bracket and advisory row.  It
  /// rejects a NaN field and an `ra` outside the enum with
  /// ContractViolation before either can become an index; +-inf clamps to
  /// the table's edge.  action_costs() and PolicyServer::query_batch both
  /// locate through it.
  static serving::GridQuery<3> locate(const AcasXuConfig& config, double tau_s, double h_ft,
                                      double dh_own_fps, double dh_int_fps, Advisory ra) {
    expect(!(std::isnan(tau_s) || std::isnan(h_ft) || std::isnan(dh_own_fps) ||
             std::isnan(dh_int_fps)),
           "pairwise query has no NaN field");
    expect(static_cast<std::size_t>(ra) < kNumAdvisories, "query ra is an advisory");
    return {{h_ft, dh_own_fps, dh_int_fps},
            0,
            serving::bracket_tau(tau_s, config.space.tau_max),
            static_cast<std::size_t>(ra)};
  }

  /// Serialize to a versioned serving::TableImage container, so the
  /// minutes-scale offline solve can be cached across runs and mmap-shared
  /// across processes.  `quant` selects the stored value precision
  /// (serving/quantize.h); kNone round-trips bit-identically.
  void save(const std::string& path, serving::Quantization quant) const;
  void save(const std::string& path) const { save(path, serving::Quantization::kNone); }

  /// Load into an OWNING table: TableImage payloads are copied (and
  /// dequantized when the image is f16/int8 — lossy, by design).  Any
  /// other file, including the pre-serving "ACX1" format, is rejected.
  /// Throws serving::TableIoError (a std::runtime_error).
  static LogicTable load(const std::string& path);

  /// Zero-copy load: the returned table's values alias the mmap'd image
  /// (shared physical pages across processes).  Requires an unquantized
  /// (f32) image; use load() to dequantize a compressed one.  The
  /// shared_ptr overload adopts an image something else already opened
  /// (PolicyServer maps each file exactly once).
  static LogicTable open_mapped(const std::string& path);
  static LogicTable open_mapped(std::shared_ptr<const serving::TableImage> image);

  /// Q entries a table of `config` stores (an image's value count).
  static std::size_t entry_count(const AcasXuConfig& config);

  /// True when this table is an mmap view (no owned payload).
  bool is_mapped() const { return store_.is_mapped(); }

  /// Decode the config metadata of a "PAIR" image without touching its
  /// value payload — how PolicyServer serves quantized images directly.
  static AcasXuConfig decode_config(const serving::TableImage& image);

  /// The value payload, owning or mapped — the serving kernel's view.
  const float* values() const { return store_.values(); }

  /// Direct access for the solver (owning tables only; throws on a
  /// mapped view).
  std::vector<float>& raw() { return store_.raw(); }
  const std::vector<float>& raw() const { return store_.raw(); }

 private:
  LogicTable(const AcasXuConfig& config, QStore store);

  AcasXuConfig config_;
  GridN<3> grid_;
  QStore store_;
};

}  // namespace cav::acasx
