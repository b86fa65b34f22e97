// PolicyServer (serving/policy_server.h): batch-of-one is bit-identical
// to the single-query table API, so is every query of a batch of any size
// (serial or pooled, around the look-ahead ring's length), batches are
// invariant to input order and pooling, spans match the array wrappers,
// image-served f32 matches in-memory serving bit for bit, quantized
// serving's policy disagreement stays pinned, and a query with a NaN
// field or an out-of-range enum is rejected on every path.
#include "serving/policy_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "acasx/online_logic.h"
#include "serving/kernel.h"
#include "sim/acasx_cas.h"
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

/// Batch sizes around the look-ahead ring: empty, one, a ring that never
/// refills, exactly one ring, one refill, two laps plus one, and a city
/// cycle.
std::vector<std::size_t> ring_batch_sizes() {
  return {0, 1, kLookAhead - 1, kLookAhead, kLookAhead + 1, 2 * kLookAhead + 1, 4096};
}

bool same_bits(const AdvisoryCosts& a, const std::array<double, kNumAdvisories>& b) {
  return std::memcmp(a.costs.data(), b.data(), sizeof(b)) == 0;
}

/// Every batch size, serial and on pool(3) (whose ranges have unequal
/// lengths), starting at several offsets of one query pool: each query's
/// costs equal `single(query)` bit for bit.
template <typename Query, typename Single>
void expect_batches_match(const PolicyServer& server, const std::vector<Query>& pool_queries,
                          const Single& single) {
  ThreadPool pool(3);
  for (const std::size_t size : ring_batch_sizes()) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{3}, std::size_t{101}}) {
      ASSERT_LE(offset + size, pool_queries.size());
      const std::span<const Query> batch(pool_queries.data() + offset, size);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        std::vector<AdvisoryCosts> out(size);
        server.query_batch(batch, out, p);
        for (std::size_t i = 0; i < size; ++i) {
          ASSERT_TRUE(same_bits(out[i], single(batch[i])))
              << "batch of " << size << " at offset " << offset << (p ? ", pooled" : ", serial")
              << ": query " << i;
        }
      }
    }
  }
}

TEST_F(PolicyServerTest, BatchesOfEverySizeMatchTheTableQueries) {
  expect_batches_match(*server_, fuzz_pair_queries(pair_->config(), 4300, 53),
                       [&](const TrackQuery& q) {
                         return pair_->action_costs(q.tau_s, q.h_ft, q.dh_own_fps, q.dh_int_fps,
                                                    q.ra);
                       });
  expect_batches_match(*server_, fuzz_joint_queries(joint_->config(), 4300, 59),
                       [&](const JointTrackQuery& q) {
                         return joint_->action_costs(q.tau1_s, q.delta_s, q.h1_ft, q.dh_own_fps,
                                                     q.dh_int1_fps, q.h2_ft, q.sense, q.ra);
                       });
}

TEST_F(PolicyServerTest, QuantizedBatchesOfEverySizeMatchBatchOfOne) {
  for (const Quantization quant : {Quantization::kFloat16, Quantization::kInt8}) {
    SCOPED_TRACE(quantization_name(quant));
    const std::string pair_path = ::testing::TempDir() + "serving_server_ring_pair.img";
    const std::string joint_path = ::testing::TempDir() + "serving_server_ring_joint.img";
    pair_->save(pair_path, quant);
    joint_->save(joint_path, quant);
    const PolicyServer quant_server = PolicyServer::open(pair_path, joint_path);
    ASSERT_EQ(quant_server.pairwise_quantization(), quant);
    ASSERT_EQ(quant_server.joint_quantization(), quant);
    const auto batch_of_one = [&](const auto& q) {
      std::array<double, kNumAdvisories> costs{};
      quant_server.action_costs(q, costs);
      return costs;
    };
    expect_batches_match(quant_server, fuzz_pair_queries(pair_->config(), 4300, 61),
                         batch_of_one);
    expect_batches_match(quant_server, fuzz_joint_queries(joint_->config(), 4300, 67),
                         batch_of_one);
    std::remove(pair_path.c_str());
    std::remove(joint_path.c_str());
  }
}

/// `bad` broken into a batch of valid queries at several positions (first,
/// inside the first ring, after a refill, last): every path rejects it.
template <typename Query, typename Single>
void expect_rejected_everywhere(const PolicyServer& server, std::vector<Query> batch,
                                const Query& bad, const Single& single, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_THROW(single(bad), ContractViolation);
  std::array<double, kNumAdvisories> costs{};
  EXPECT_THROW(server.action_costs(bad, costs), ContractViolation);
  ThreadPool pool(3);
  for (const std::size_t at : {std::size_t{0}, kLookAhead - 1, 2 * kLookAhead + 1,
                               batch.size() - 1}) {
    std::vector<Query> broken = batch;
    broken[at] = bad;
    std::vector<AdvisoryCosts> out(broken.size());
    EXPECT_THROW(server.query_batch(broken, out), ContractViolation) << "serial, at " << at;
    EXPECT_THROW(server.query_batch(broken, out, &pool), ContractViolation) << "pooled, at " << at;
  }
}

TEST_F(PolicyServerTest, NaNFieldsAndOutOfRangeEnumsAreRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto pair_queries = fuzz_pair_queries(pair_->config(), 300, 71);
  const auto pair_single = [&](const TrackQuery& q) {
    return pair_->action_costs(q.tau_s, q.h_ft, q.dh_own_fps, q.dh_int_fps, q.ra);
  };
  const TrackQuery pair_ok = pair_queries[5];
  const struct {
    double TrackQuery::*field;
    const char* name;
  } kPairFields[] = {{&TrackQuery::tau_s, "tau_s"},
                     {&TrackQuery::h_ft, "h_ft"},
                     {&TrackQuery::dh_own_fps, "dh_own_fps"},
                     {&TrackQuery::dh_int_fps, "dh_int_fps"}};
  for (const auto& f : kPairFields) {
    TrackQuery bad = pair_ok;
    bad.*f.field = nan;
    expect_rejected_everywhere(*server_, pair_queries, bad, pair_single, f.name);
  }
  for (const int ra : {static_cast<int>(kNumAdvisories), 255}) {
    TrackQuery bad = pair_ok;
    bad.ra = static_cast<acasx::Advisory>(ra);
    expect_rejected_everywhere(*server_, pair_queries, bad, pair_single, "ra");
  }

  const auto joint_queries = fuzz_joint_queries(joint_->config(), 300, 73);
  const auto joint_single = [&](const JointTrackQuery& q) {
    return joint_->action_costs(q.tau1_s, q.delta_s, q.h1_ft, q.dh_own_fps, q.dh_int1_fps,
                                q.h2_ft, q.sense, q.ra);
  };
  const JointTrackQuery joint_ok = joint_queries[5];
  const struct {
    double JointTrackQuery::*field;
    const char* name;
  } kJointFields[] = {{&JointTrackQuery::tau1_s, "tau1_s"},
                      {&JointTrackQuery::delta_s, "delta_s"},
                      {&JointTrackQuery::h1_ft, "h1_ft"},
                      {&JointTrackQuery::dh_own_fps, "dh_own_fps"},
                      {&JointTrackQuery::dh_int1_fps, "dh_int1_fps"},
                      {&JointTrackQuery::h2_ft, "h2_ft"}};
  for (const auto& f : kJointFields) {
    JointTrackQuery bad = joint_ok;
    bad.*f.field = nan;
    expect_rejected_everywhere(*server_, joint_queries, bad, joint_single, f.name);
  }
  for (const int ra : {static_cast<int>(kNumAdvisories), 255}) {
    JointTrackQuery bad = joint_ok;
    bad.ra = static_cast<acasx::Advisory>(ra);
    expect_rejected_everywhere(*server_, joint_queries, bad, joint_single, "joint ra");
  }
  for (const int sense : {static_cast<int>(acasx::kNumSecondarySenses), 255}) {
    JointTrackQuery bad = joint_ok;
    bad.sense = static_cast<acasx::SecondarySense>(sense);
    expect_rejected_everywhere(*server_, joint_queries, bad, joint_single, "sense");
  }
}

TEST_F(PolicyServerTest, InfiniteFieldsClampToTheTableEdge) {
  const double inf = std::numeric_limits<double>::infinity();
  const acasx::StateSpaceConfig& space = pair_->config().space;
  const double tau_max = static_cast<double>(space.tau_max);
  for (const auto ra : acasx::kAllAdvisories) {
    EXPECT_EQ(pair_->action_costs(inf, inf, -inf, 0.0, ra),
              pair_->action_costs(tau_max, space.h_ft.hi(), space.dh_own_fps.lo(), 0.0, ra));
    EXPECT_EQ(pair_->action_costs(-inf, -inf, 0.0, inf, ra),
              pair_->action_costs(0.0, space.h_ft.lo(), 0.0, space.dh_int_fps.hi(), ra));
  }
  const JointConfig& jc = joint_->config();
  const double last_delta = jc.secondary.delta_value_s(jc.secondary.num_delta_bins - 1);
  for (const auto sense : {acasx::SecondarySense::kLevel, acasx::SecondarySense::kDescending}) {
    // An infinite delta snaps to the last bin; an infinite tau1 clamps to
    // the top layer, as tau1 = tau_max does once the bin's offset is added.
    EXPECT_EQ(joint_->action_costs(3.0, inf, 100.0, 0.0, 0.0, -inf, sense, acasx::Advisory::kCoc),
              joint_->action_costs(3.0, last_delta, 100.0, 0.0, 0.0, jc.secondary.h2_ft.lo(),
                                   sense, acasx::Advisory::kCoc));
    EXPECT_EQ(joint_->action_costs(inf, 0.0, inf, inf, -inf, 0.0, sense,
                                   acasx::Advisory::kClimb1500),
              joint_->action_costs(static_cast<double>(jc.space.tau_max), 0.0, jc.space.h_ft.hi(),
                                   jc.space.dh_own_fps.hi(), jc.space.dh_int_fps.lo(), 0.0, sense,
                                   acasx::Advisory::kClimb1500));
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

TEST_F(PolicyServerTest, CasFactoryRejectsQuantizedServing) {
  const std::string path = ::testing::TempDir() + "serving_server_f16.img";
  pair_->save(path, Quantization::kFloat16);
  const PolicyServer quant_server = PolicyServer::open(path);
  EXPECT_THROW(sim::AcasXuCas::factory(quant_server.pairwise_table(),
                                       {.joint = quant_server.joint_table()}),
               ContractViolation);

  // The f32-mapped server wires straight into the CAS adapter.
  const PolicyServer mapped = PolicyServer::open(pair_img_, joint_img_);
  const sim::CasFactory factory =
      sim::AcasXuCas::factory(mapped.pairwise_table(), {.joint = mapped.joint_table()});
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
