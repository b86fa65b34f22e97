#include "serving/policy_server.h"

#include <algorithm>
#include <exception>
#include <mutex>

#include "serving/kernel.h"
#include "util/expect.h"

namespace cav::serving {
namespace {

constexpr std::size_t kA = acasx::kNumAdvisories;

/// Run `fn` with the value view matching the stored precision — the one
/// dispatch point between f32/f16/int8 serving.
template <class Fn>
void with_view(const ValueSlabs& slabs, Fn&& fn) {
  switch (slabs.quant) {
    case Quantization::kNone:
      fn(F32View{slabs.f32});
      return;
    case Quantization::kFloat16:
      fn(F16View{slabs.f16});
      return;
    case Quantization::kInt8:
      fn(Int8View{slabs.u8, slabs.scale_offset, slabs.block_elems});
      return;
  }
  expect(false, "known quantization mode");
}

template <class View>
void eval_pair_range(const View& view, const GridN<3>& grid, const acasx::AcasXuConfig& config,
                     std::span<const TrackQuery> queries, std::span<AdvisoryCosts> out,
                     std::size_t begin, std::size_t end) {
  grid_query_batch<kA>(
      view, grid, begin, end,
      [&](std::size_t k) {
        const TrackQuery& q = queries[k];
        return acasx::LogicTable::locate(config, q.tau_s, q.h_ft, q.dh_own_fps, q.dh_int_fps,
                                         q.ra);
      },
      [&](std::size_t k) { return out[k].costs.data(); });
}

template <class View>
void eval_joint_range(const View& view, const GridN<4>& grid, const acasx::JointConfig& config,
                      std::span<const JointTrackQuery> queries, std::span<AdvisoryCosts> out,
                      std::size_t begin, std::size_t end) {
  grid_query_batch<kA>(
      view, grid, begin, end,
      [&](std::size_t k) {
        const JointTrackQuery& q = queries[k];
        return acasx::JointLogicTable::locate(config, q.tau1_s, q.delta_s, q.h1_ft,
                                              q.dh_own_fps, q.dh_int1_fps, q.h2_ft, q.sense,
                                              q.ra);
      },
      [&](std::size_t k) { return out[k].costs.data(); });
}

/// Evaluate [0, n) through `eval(begin, end)`, sharded across `pool` when
/// one is given.  Each query writes only its own output slot, so the
/// sharding is invisible in the results.  A pool task must not throw, so
/// a range's rejected query is caught there and, after the join, the
/// lowest range's exception is rethrown: the one a serial run throws.
template <class Eval>
void run_batch(std::size_t n, ThreadPool* pool, const Eval& eval) {
  if (pool == nullptr || n <= 1) {
    eval(0, n);
    return;
  }
  std::mutex mutex;
  std::size_t error_begin = n;
  std::exception_ptr error;
  pool->parallel_for_ranges(n, [&](std::size_t begin, std::size_t end) {
    try {
      eval(begin, end);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex);
      if (begin < error_begin) {
        error_begin = begin;
        error = std::current_exception();
      }
    }
  });
  if (error) std::rethrow_exception(error);
}

}  // namespace

PolicyServer::PolicyServer(std::shared_ptr<const acasx::LogicTable> pairwise,
                           std::shared_ptr<const acasx::JointLogicTable> joint) {
  init_pair(std::move(pairwise));
  if (joint != nullptr) init_joint(std::move(joint));
}

void PolicyServer::init_pair(std::shared_ptr<const acasx::LogicTable> table) {
  expect(table != nullptr, "pairwise table provided");
  expect(table->num_entries() != 0, "pairwise table is solved/loaded");
  pair_config_ = table->config();
  pair_grid_ = table->grid();
  pair_slabs_ = ValueSlabs{};
  pair_slabs_.quant = Quantization::kNone;
  pair_slabs_.count = table->num_entries();
  pair_slabs_.f32 = table->values();
  pair_table_ = std::move(table);
}

void PolicyServer::init_joint(std::shared_ptr<const acasx::JointLogicTable> table) {
  expect(table != nullptr, "joint table provided");
  expect(table->num_entries() != 0, "joint table is solved/loaded");
  joint_config_ = table->config();
  joint_grid_ = table->grid();
  joint_slabs_ = ValueSlabs{};
  joint_slabs_.quant = Quantization::kNone;
  joint_slabs_.count = table->num_entries();
  joint_slabs_.f32 = table->values();
  joint_table_ = std::move(table);
  joint_loaded_ = true;
}

PolicyServer PolicyServer::open(const std::string& pairwise_path,
                                const std::string& joint_path) {
  PolicyServer server;

  auto pair_image = std::make_shared<const TableImage>(TableImage::open(pairwise_path));
  if (pair_image->kind_name() != kKindPairwise) {
    throw TableIoError("PolicyServer::open", "wrong table kind", pairwise_path);
  }
  const ValueSlabs pair_slabs = open_value_slabs(*pair_image);
  if (pair_slabs.quant == Quantization::kNone) {
    server.init_pair(std::make_shared<const acasx::LogicTable>(
        acasx::LogicTable::open_mapped(pair_image)));
  } else {
    server.pair_config_ = acasx::LogicTable::decode_config(*pair_image);
    server.pair_grid_ = server.pair_config_.space.grid();
    if (pair_slabs.count != acasx::LogicTable::entry_count(server.pair_config_)) {
      throw TableIoError("PolicyServer::open", "size mismatch", pairwise_path);
    }
    server.pair_slabs_ = pair_slabs;
  }
  server.pair_image_ = std::move(pair_image);

  if (!joint_path.empty()) {
    auto joint_image = std::make_shared<const TableImage>(TableImage::open(joint_path));
    if (joint_image->kind_name() != kKindJoint) {
      throw TableIoError("PolicyServer::open", "wrong table kind", joint_path);
    }
    const ValueSlabs joint_slabs = open_value_slabs(*joint_image);
    if (joint_slabs.quant == Quantization::kNone) {
      server.init_joint(std::make_shared<const acasx::JointLogicTable>(
          acasx::JointLogicTable::open_mapped(joint_image)));
    } else {
      server.joint_config_ = acasx::JointLogicTable::decode_config(*joint_image);
      server.joint_grid_ = server.joint_config_.grid();
      if (joint_slabs.count != acasx::JointLogicTable::entry_count(server.joint_config_)) {
        throw TableIoError("PolicyServer::open", "size mismatch", joint_path);
      }
      server.joint_slabs_ = joint_slabs;
      server.joint_loaded_ = true;
    }
    server.joint_image_ = std::move(joint_image);
  }
  return server;
}

void PolicyServer::query_batch(std::span<const TrackQuery> queries, std::span<AdvisoryCosts> out,
                               ThreadPool* pool) const {
  expect(queries.size() == out.size(), "query and result spans are the same length");
  if (queries.empty()) return;
  with_view(pair_slabs_, [&](const auto& view) {
    run_batch(queries.size(), pool, [&](std::size_t begin, std::size_t end) {
      eval_pair_range(view, pair_grid_, pair_config_, queries, out, begin, end);
    });
  });
}

void PolicyServer::query_batch(std::span<const JointTrackQuery> queries,
                               std::span<AdvisoryCosts> out, ThreadPool* pool) const {
  expect(has_joint(), "server has a joint table");
  expect(queries.size() == out.size(), "query and result spans are the same length");
  if (queries.empty()) return;
  with_view(joint_slabs_, [&](const auto& view) {
    run_batch(queries.size(), pool, [&](std::size_t begin, std::size_t end) {
      eval_joint_range(view, joint_grid_, joint_config_, queries, out, begin, end);
    });
  });
}

void PolicyServer::action_costs(const TrackQuery& query,
                                std::span<double, acasx::kNumAdvisories> out) const {
  AdvisoryCosts result;
  query_batch({&query, 1}, {&result, 1});
  std::copy(result.costs.begin(), result.costs.end(), out.begin());
}

void PolicyServer::action_costs(const JointTrackQuery& query,
                                std::span<double, acasx::kNumAdvisories> out) const {
  AdvisoryCosts result;
  query_batch({&query, 1}, {&result, 1});
  std::copy(result.costs.begin(), result.costs.end(), out.begin());
}

}  // namespace cav::serving
