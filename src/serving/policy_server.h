// The batched policy-serving engine — the tentpole of ROADMAP item 1.
//
// A PolicyServer fronts one pairwise LogicTable and (optionally) one
// JointLogicTable behind a unified query API:
//
//   * query_batch() takes a span of queries and fills a span of per-query
//     advisory-cost vectors, evaluating them in input order, optionally
//     sharded across a ThreadPool.  Query i writes only out[i], so
//     sharding is invisible in the results.
//   * action_costs() is batch-of-one over the exact same kernel, which is
//     also the kernel behind LogicTable::action_costs — the single-query
//     and batched paths are bit-identical by construction (asserted in
//     tests/test_serving_server.cpp).
//
// Backing storage is whatever the server was built from:
//   * in-memory tables (shared_ptr) — e.g. freshly solved;
//   * an mmap'd f32 image (open()) — zero-copy, page-cache-shared across
//     processes; pairwise_table()/joint_table() expose the mapped tables
//     so existing CAS adapters serve from the same physical pages;
//   * an mmap'd QUANTIZED image — served directly through a dequantizing
//     view (serving/kernel.h) without ever expanding the payload;
//     pairwise_table()/joint_table() are null in this mode because the
//     LogicTable API promises float values.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>

#include "acasx/joint_table.h"
#include "acasx/logic_table.h"
#include "serving/table_codec.h"
#include "util/thread_pool.h"

namespace cav::serving {

/// One pairwise query: the continuous state LogicTable::action_costs
/// takes, as data.
struct TrackQuery {
  double tau_s = 0.0;
  double h_ft = 0.0;
  double dh_own_fps = 0.0;
  double dh_int_fps = 0.0;
  acasx::Advisory ra = acasx::Advisory::kCoc;
};

/// One joint-threat query: the continuous state
/// JointLogicTable::action_costs takes, as data.
struct JointTrackQuery {
  double tau1_s = 0.0;
  double delta_s = 0.0;
  double h1_ft = 0.0;
  double dh_own_fps = 0.0;
  double dh_int1_fps = 0.0;
  double h2_ft = 0.0;
  acasx::SecondarySense sense = acasx::SecondarySense::kLevel;
  acasx::Advisory ra = acasx::Advisory::kCoc;
};

/// Per-query result: the five advisory costs.
struct AdvisoryCosts {
  std::array<double, acasx::kNumAdvisories> costs{};
};

class PolicyServer {
 public:
  /// Serve in-memory (or mapped) tables.  `joint` may be null: joint
  /// queries then throw (has_joint() tells).
  explicit PolicyServer(std::shared_ptr<const acasx::LogicTable> pairwise,
                        std::shared_ptr<const acasx::JointLogicTable> joint = nullptr);

  /// Serve TableImage files.  f32 images are opened zero-copy through
  /// LogicTable::open_mapped / JointLogicTable::open_mapped (the mapped
  /// tables are exposed); quantized images are served directly through a
  /// dequantizing view.  `joint_path` empty means pairwise-only.
  static PolicyServer open(const std::string& pairwise_path,
                           const std::string& joint_path = std::string());

  /// Evaluate `queries[i]` into `out[i]` for all i, in input order,
  /// sharded across `pool` when one is given.  Spans must be the same
  /// length.  Bit-identical to calling action_costs per query, with or
  /// without a pool.
  void query_batch(std::span<const TrackQuery> queries, std::span<AdvisoryCosts> out,
                   ThreadPool* pool = nullptr) const;
  void query_batch(std::span<const JointTrackQuery> queries, std::span<AdvisoryCosts> out,
                   ThreadPool* pool = nullptr) const;

  /// Batch-of-one conveniences over the same kernel.
  void action_costs(const TrackQuery& query,
                    std::span<double, acasx::kNumAdvisories> out) const;
  void action_costs(const JointTrackQuery& query,
                    std::span<double, acasx::kNumAdvisories> out) const;

  bool has_joint() const { return joint_loaded_; }

  /// Stored precision of each payload.
  Quantization pairwise_quantization() const { return pair_slabs_.quant; }
  Quantization joint_quantization() const { return joint_slabs_.quant; }

  /// Bytes actually served per table (values + int8 scales); the
  /// quantization win bench_policy_server reports.
  std::size_t pairwise_payload_bytes() const { return pair_slabs_.payload_bytes(); }
  std::size_t joint_payload_bytes() const { return joint_slabs_.payload_bytes(); }

  const acasx::AcasXuConfig& pairwise_config() const { return pair_config_; }
  const acasx::JointConfig& joint_config() const { return joint_config_; }

  /// The backing tables, for wiring CAS adapters onto the server's shared
  /// storage (sim/served_cas.h).  Null when serving a quantized image
  /// (no float table exists in that mode).
  const std::shared_ptr<const acasx::LogicTable>& pairwise_table() const { return pair_table_; }
  const std::shared_ptr<const acasx::JointLogicTable>& joint_table() const {
    return joint_table_;
  }

 private:
  PolicyServer() = default;

  void init_pair(std::shared_ptr<const acasx::LogicTable> table);
  void init_joint(std::shared_ptr<const acasx::JointLogicTable> table);

  std::shared_ptr<const acasx::LogicTable> pair_table_;
  std::shared_ptr<const TableImage> pair_image_;
  ValueSlabs pair_slabs_{};
  acasx::AcasXuConfig pair_config_{};
  GridN<3> pair_grid_;

  bool joint_loaded_ = false;
  std::shared_ptr<const acasx::JointLogicTable> joint_table_;
  std::shared_ptr<const TableImage> joint_image_;
  ValueSlabs joint_slabs_{};
  acasx::JointConfig joint_config_{};
  GridN<4> joint_grid_;
};

}  // namespace cav::serving
