// PolicyServer (serving/policy_server.h): batch-of-one is bit-identical
// to the single-query table API, batches are invariant to input order
// and pooling, spans match the array wrappers, image-served f32
// matches in-memory serving bit for bit, and quantized serving's policy
// disagreement stays pinned.
#include "serving/policy_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "acasx/online_logic.h"
#include "sim/served_cas.h"
#include "util/expect.h"
#include "util/thread_pool.h"

namespace cav::serving {
namespace {

using acasx::AcasXuConfig;
using acasx::JointConfig;
using acasx::JointLogicTable;
using acasx::kNumAdvisories;
using acasx::LogicTable;

acasx::StateSpaceConfig tiny_space() {
  acasx::StateSpaceConfig s;
  s.h_ft = UniformAxis(-800.0, 800.0, 17);
  s.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  s.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  s.tau_max = 16;
  return s;
}

std::vector<TrackQuery> fuzz_pair_queries(const AcasXuConfig& config, std::size_t n,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto axis_span = [&](const UniformAxis& axis) {
    const double pad = 0.2 * (axis.hi() - axis.lo());
    return axis.lo() - pad + u01(rng) * (axis.hi() - axis.lo() + 2.0 * pad);
  };
  std::vector<TrackQuery> queries(n);
  for (auto& q : queries) {
    // tau beyond tau_max exercises the clamp; every integer layer is hit
    // with n >> tau_max.
    q.tau_s = u01(rng) * (static_cast<double>(config.space.tau_max) + 3.0);
    q.h_ft = axis_span(config.space.h_ft);
    q.dh_own_fps = axis_span(config.space.dh_own_fps);
    q.dh_int_fps = axis_span(config.space.dh_int_fps);
    q.ra = static_cast<acasx::Advisory>(rng() % kNumAdvisories);
  }
  return queries;
}

std::vector<JointTrackQuery> fuzz_joint_queries(const JointConfig& config, std::size_t n,
                                                std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto axis_span = [&](const UniformAxis& axis) {
    const double pad = 0.2 * (axis.hi() - axis.lo());
    return axis.lo() - pad + u01(rng) * (axis.hi() - axis.lo() + 2.0 * pad);
  };
  std::vector<JointTrackQuery> queries(n);
  for (auto& q : queries) {
    q.tau1_s = u01(rng) * (static_cast<double>(config.space.tau_max) + 3.0);
    q.delta_s = u01(rng) * config.secondary.delta_step_s *
                static_cast<double>(config.secondary.num_delta_bins + 1);
    q.h1_ft = axis_span(config.space.h_ft);
    q.dh_own_fps = axis_span(config.space.dh_own_fps);
    q.dh_int1_fps = axis_span(config.space.dh_int_fps);
    q.h2_ft = axis_span(config.secondary.h2_ft);
    q.sense = static_cast<acasx::SecondarySense>(rng() % acasx::kNumSecondarySenses);
    q.ra = static_cast<acasx::Advisory>(rng() % kNumAdvisories);
  }
  return queries;
}

class PolicyServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = std::make_shared<const LogicTable>(acasx::solve_logic_table(AcasXuConfig::coarse()));
    JointConfig jc;
    jc.space = tiny_space();
    joint_ = std::make_shared<const JointLogicTable>(acasx::solve_joint_table(jc));
    server_ = new PolicyServer(pair_, joint_);

    pair_img_ = ::testing::TempDir() + "serving_server_pair.img";
    joint_img_ = ::testing::TempDir() + "serving_server_joint.img";
    pair_->save(pair_img_);
    joint_->save(joint_img_);
  }
  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    std::remove(pair_img_.c_str());
    std::remove(joint_img_.c_str());
    pair_.reset();
    joint_.reset();
  }

  static std::shared_ptr<const LogicTable> pair_;
  static std::shared_ptr<const JointLogicTable> joint_;
  static PolicyServer* server_;
  static std::string pair_img_;
  static std::string joint_img_;
};

std::shared_ptr<const LogicTable> PolicyServerTest::pair_;
std::shared_ptr<const JointLogicTable> PolicyServerTest::joint_;
PolicyServer* PolicyServerTest::server_ = nullptr;
std::string PolicyServerTest::pair_img_;
std::string PolicyServerTest::joint_img_;

TEST_F(PolicyServerTest, BatchOfOneIsBitIdenticalToSingleQuery) {
  const auto queries = fuzz_pair_queries(pair_->config(), 2000, 11);
  for (const auto& q : queries) {
    std::array<double, kNumAdvisories> batched{};
    server_->action_costs(q, batched);
    const auto single = pair_->action_costs(q.tau_s, q.h_ft, q.dh_own_fps, q.dh_int_fps, q.ra);
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      ASSERT_EQ(batched[a], single[a]) << "advisory " << a;  // bitwise, not approx
    }
  }
}

TEST_F(PolicyServerTest, JointBatchOfOneIsBitIdenticalToSingleQuery) {
  const auto queries = fuzz_joint_queries(joint_->config(), 2000, 13);
  for (const auto& q : queries) {
    std::array<double, kNumAdvisories> batched{};
    server_->action_costs(q, batched);
    const auto single = joint_->action_costs(q.tau1_s, q.delta_s, q.h1_ft, q.dh_own_fps,
                                             q.dh_int1_fps, q.h2_ft, q.sense, q.ra);
    for (std::size_t a = 0; a < kNumAdvisories; ++a) {
      ASSERT_EQ(batched[a], single[a]) << "advisory " << a;
    }
  }
}

TEST_F(PolicyServerTest, BatchIsInvariantToOrderSortingAndPooling) {
  const auto queries = fuzz_pair_queries(pair_->config(), 4096, 17);
  std::vector<AdvisoryCosts> reference(queries.size());
  server_->query_batch(queries, reference);

  // Pool sharding is invisible in the results.
  ThreadPool pool(3);
  std::vector<AdvisoryCosts> pooled_out(queries.size());
  server_->query_batch(queries, pooled_out, &pool);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(pooled_out[i].costs, reference[i].costs) << "query " << i;
  }

  // Shuffling the input permutes the outputs identically.
  std::vector<std::size_t> perm(queries.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(23));
  std::vector<TrackQuery> shuffled(queries.size());
  for (std::size_t i = 0; i < perm.size(); ++i) shuffled[i] = queries[perm[i]];
  std::vector<AdvisoryCosts> shuffled_out(queries.size());
  server_->query_batch(shuffled, shuffled_out);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    ASSERT_EQ(shuffled_out[i].costs, reference[perm[i]].costs) << "query " << i;
  }
}

TEST_F(PolicyServerTest, SpanOverloadsMatchArrayWrappers) {
  const auto queries = fuzz_pair_queries(pair_->config(), 500, 29);
  for (const auto& q : queries) {
    std::array<double, kNumAdvisories> via_span{};
    pair_->action_costs(q.tau_s, q.h_ft, q.dh_own_fps, q.dh_int_fps, q.ra, via_span);
    const auto via_array = pair_->action_costs(q.tau_s, q.h_ft, q.dh_own_fps, q.dh_int_fps, q.ra);
    EXPECT_EQ(via_span, via_array);
  }
  const auto joint_queries = fuzz_joint_queries(joint_->config(), 500, 31);
  for (const auto& q : joint_queries) {
    std::array<double, kNumAdvisories> via_span{};
    joint_->action_costs(q.tau1_s, q.delta_s, q.h1_ft, q.dh_own_fps, q.dh_int1_fps, q.h2_ft,
                         q.sense, q.ra, via_span);
    const auto via_array = joint_->action_costs(q.tau1_s, q.delta_s, q.h1_ft, q.dh_own_fps,
                                                q.dh_int1_fps, q.h2_ft, q.sense, q.ra);
    EXPECT_EQ(via_span, via_array);
  }
}

TEST_F(PolicyServerTest, ImageServedMatchesInMemoryBitForBit) {
  const PolicyServer mapped = PolicyServer::open(pair_img_, joint_img_);
  EXPECT_EQ(mapped.pairwise_quantization(), Quantization::kNone);
  ASSERT_TRUE(mapped.has_joint());
  ASSERT_NE(mapped.pairwise_table(), nullptr);
  EXPECT_TRUE(mapped.pairwise_table()->is_mapped());

  const auto queries = fuzz_pair_queries(pair_->config(), 4096, 37);
  std::vector<AdvisoryCosts> from_memory(queries.size());
  std::vector<AdvisoryCosts> from_image(queries.size());
  server_->query_batch(queries, from_memory);
  mapped.query_batch(queries, from_image);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(from_image[i].costs, from_memory[i].costs) << "query " << i;
  }

  const auto joint_queries = fuzz_joint_queries(joint_->config(), 4096, 41);
  std::vector<AdvisoryCosts> joint_memory(joint_queries.size());
  std::vector<AdvisoryCosts> joint_image(joint_queries.size());
  server_->query_batch(joint_queries, joint_memory);
  mapped.query_batch(joint_queries, joint_image);
  for (std::size_t i = 0; i < joint_queries.size(); ++i) {
    ASSERT_EQ(joint_image[i].costs, joint_memory[i].costs) << "query " << i;
  }
}

TEST_F(PolicyServerTest, QuantizedServingDisagreementStaysPinned) {
  // Policy-level regression pin: the fraction of fuzz queries whose argmin
  // advisory flips under quantized serving.  Bounds are ~4x the measured
  // coarse-table rates (f16 0%, int8 ~0.1%) so codec regressions trip them
  // while discretization noise does not.
  const auto queries = fuzz_pair_queries(pair_->config(), 20'000, 43);
  std::vector<AdvisoryCosts> reference(queries.size());
  server_->query_batch(queries, reference);

  const struct {
    Quantization quant;
    double max_rate;
  } kPins[] = {{Quantization::kFloat16, 0.002}, {Quantization::kInt8, 0.01}};
  for (const auto& pin : kPins) {
    const std::string path = ::testing::TempDir() + "serving_server_quant.img";
    pair_->save(path, pin.quant);
    const PolicyServer quant_server = PolicyServer::open(path);
    EXPECT_EQ(quant_server.pairwise_quantization(), pin.quant);
    EXPECT_EQ(quant_server.pairwise_table(), nullptr);  // no float table in this mode
    std::vector<AdvisoryCosts> served(queries.size());
    quant_server.query_batch(queries, served);
    std::size_t flips = 0;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const auto ref =
          acasx::select_advisory(reference[i].costs, acasx::Sense::kNone, queries[i].ra);
      const auto got = acasx::select_advisory(served[i].costs, acasx::Sense::kNone, queries[i].ra);
      if (ref != got) ++flips;
    }
    const double rate = static_cast<double>(flips) / static_cast<double>(queries.size());
    EXPECT_LE(rate, pin.max_rate) << "quantization mode " << static_cast<int>(pin.quant);
    std::remove(path.c_str());
  }
}

TEST_F(PolicyServerTest, QuantizedPayloadIsSmaller) {
  const std::string path = ::testing::TempDir() + "serving_server_int8.img";
  pair_->save(path, Quantization::kInt8);
  const PolicyServer quant_server = PolicyServer::open(path);
  const PolicyServer f32_server = PolicyServer::open(pair_img_);
  // int8 payload (1 B/value + per-block scales) must be at most 1/3 of f32.
  EXPECT_LE(3 * quant_server.pairwise_payload_bytes(), f32_server.pairwise_payload_bytes());
  std::remove(path.c_str());
}

TEST_F(PolicyServerTest, ServedCasFactoriesRejectQuantizedServing) {
  const std::string path = ::testing::TempDir() + "serving_server_f16.img";
  pair_->save(path, Quantization::kFloat16);
  const PolicyServer quant_server = PolicyServer::open(path);
  EXPECT_THROW(sim::served_acasx_factory(quant_server), ContractViolation);
  EXPECT_THROW(sim::served_belief_factory(quant_server), ContractViolation);

  // The f32-mapped server wires straight into the CAS adapters.
  const PolicyServer mapped = PolicyServer::open(pair_img_, joint_img_);
  const sim::CasFactory factory = sim::served_acasx_factory(mapped);
  EXPECT_NE(factory(), nullptr);
  std::remove(path.c_str());
}

TEST_F(PolicyServerTest, JointQueriesRequireAJointTable) {
  const PolicyServer pairwise_only = PolicyServer::open(pair_img_);
  EXPECT_FALSE(pairwise_only.has_joint());
  const auto joint_queries = fuzz_joint_queries(joint_->config(), 2, 47);
  std::vector<AdvisoryCosts> out(joint_queries.size());
  EXPECT_THROW(pairwise_only.query_batch(joint_queries, out), ContractViolation);
}

}  // namespace
}  // namespace cav::serving
