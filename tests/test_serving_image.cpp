// The TableImage container (serving/table_image.h) and the table dump /
// load / mmap paths built on it: save -> load round-trips are bit
// identical for both tables, mapped views serve the same bytes zero-copy,
// a flip of any byte is caught by the XXH64 checksum (whose known answers
// are pinned here), a crafted directory cannot point outside the file,
// TableIoError carries a machine-checkable (op, reason, path), and
// version-1 images and the pre-serving ACX1/JTX1 formats are rejected.
#include "serving/table_image.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "acasx/joint_solver.h"
#include "acasx/logic_table.h"
#include "acasx/offline_solver.h"
#include "serving/table_codec.h"
#include "serving/xxh64.h"
#include "util/expect.h"

namespace cav::serving {
namespace {

using acasx::AcasXuConfig;
using acasx::JointConfig;
using acasx::JointLogicTable;
using acasx::LogicTable;

acasx::StateSpaceConfig tiny_space() {
  acasx::StateSpaceConfig s;
  s.h_ft = UniformAxis(-800.0, 800.0, 17);
  s.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  s.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  s.tau_max = 16;
  return s;
}

class ServingImageTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    pair_ = new LogicTable(acasx::solve_logic_table(AcasXuConfig::coarse()));
    JointConfig jc;
    jc.space = tiny_space();
    joint_ = new JointLogicTable(acasx::solve_joint_table(jc));
  }
  static void TearDownTestSuite() {
    delete pair_;
    delete joint_;
    pair_ = nullptr;
    joint_ = nullptr;
  }
  static std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

  static LogicTable* pair_;
  static JointLogicTable* joint_;
};

LogicTable* ServingImageTest::pair_ = nullptr;
JointLogicTable* ServingImageTest::joint_ = nullptr;

TEST_F(ServingImageTest, PairwiseRoundTripIsBitIdentical) {
  const std::string path = temp_path("serving_pair_rt.img");
  pair_->save(path);
  const LogicTable loaded = LogicTable::load(path);
  ASSERT_EQ(loaded.raw().size(), pair_->raw().size());
  EXPECT_EQ(loaded.raw(), pair_->raw());
  EXPECT_EQ(loaded.config().space.tau_max, pair_->config().space.tau_max);
  EXPECT_DOUBLE_EQ(loaded.config().costs.nmac_cost, pair_->config().costs.nmac_cost);
  EXPECT_DOUBLE_EQ(loaded.config().space.h_ft.lo(), pair_->config().space.h_ft.lo());
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, PairwiseMappedViewServesIdenticalBytes) {
  const std::string path = temp_path("serving_pair_map.img");
  pair_->save(path);
  const LogicTable mapped = LogicTable::open_mapped(path);
  EXPECT_TRUE(mapped.is_mapped());
  ASSERT_EQ(mapped.num_entries(), pair_->num_entries());
  const float* v = mapped.values();
  for (std::size_t i = 0; i < pair_->raw().size(); ++i) {
    ASSERT_EQ(v[i], pair_->raw()[i]) << "entry " << i;
  }
  // Mapped views are read-only: the owning-vector accessor must refuse.
  EXPECT_THROW(mapped.raw(), ContractViolation);
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, JointRoundTripIsBitIdentical) {
  const std::string path = temp_path("serving_joint_rt.img");
  joint_->save(path);
  const JointLogicTable loaded = JointLogicTable::load(path);
  ASSERT_EQ(loaded.raw().size(), joint_->raw().size());
  EXPECT_EQ(loaded.raw(), joint_->raw());
  EXPECT_EQ(loaded.config().secondary.num_delta_bins, joint_->config().secondary.num_delta_bins);
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, JointMappedViewServesIdenticalBytes) {
  const std::string path = temp_path("serving_joint_map.img");
  joint_->save(path);
  const JointLogicTable mapped = JointLogicTable::open_mapped(path);
  EXPECT_TRUE(mapped.is_mapped());
  ASSERT_EQ(mapped.num_entries(), joint_->num_entries());
  const float* v = mapped.values();
  for (std::size_t i = 0; i < joint_->raw().size(); i += 97) {
    ASSERT_EQ(v[i], joint_->raw()[i]) << "entry " << i;
  }
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, ChecksumCatchesPayloadCorruption) {
  const std::string path = temp_path("serving_pair_corrupt.img");
  pair_->save(path);
  {
    // Flip one byte deep in the value payload.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-64, std::ios::end);
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(-64, std::ios::end);
    byte = static_cast<char>(byte ^ 0x5A);
    f.write(&byte, 1);
  }
  try {
    TableImage::open(path);
    FAIL() << "corrupted image must not open";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.reason(), "checksum mismatch");
    EXPECT_EQ(e.path(), path);
  }
  std::remove(path.c_str());
}

// Raw file access for the byte-level container tests below.
std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Container layout, as documented in serving/table_image.h: magic at 0,
// version at 4, checksum at 24, then the directory, whose first entry
// keeps its slab offset at +32 and its byte count at +40.
constexpr std::size_t kVersionField = 4;
constexpr std::size_t kChecksumField = 24;
constexpr std::size_t kEntry0Offset = 32 + 32;
constexpr std::size_t kEntry0Bytes = 32 + 40;

/// The checksum by its definition: XXH64 (seed 0) of every byte except the
/// 8-byte checksum field.
std::uint64_t checksum_by_definition(const std::vector<unsigned char>& file) {
  Xxh64 h;
  h.update(file.data(), kChecksumField);
  h.update(file.data() + kChecksumField + 8, file.size() - kChecksumField - 8);
  return h.digest();
}

std::string open_failure(const std::string& path) {
  try {
    TableImage::open(path);
  } catch (const TableIoError& e) {
    return e.reason();
  }
  return "opened";
}

std::uint64_t xxh64_of(const void* data, std::size_t bytes) {
  Xxh64 h;
  h.update(data, bytes);
  return h.digest();
}

TEST(Xxh64Test, KnownAnswers) {
  EXPECT_EQ(xxh64_of("", 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64_of("abc", 3), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one full 32-byte stripe through the four lanes, then the
  // 8-, 4- and 1-byte tails.
  const std::string text = "Nobody inspects the spammish repetition";
  ASSERT_EQ(text.size(), 39u);
  EXPECT_EQ(xxh64_of(text.data(), text.size()), 0xFBCEA83C8A378BF1ULL);
}

TEST(Xxh64Test, StreamingMatchesOneShotAtEverySplit) {
  std::vector<unsigned char> data(131);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<unsigned char>(i * 37 + 11);
  const std::uint64_t whole = xxh64_of(data.data(), data.size());
  for (std::size_t cut = 0; cut <= data.size(); ++cut) {
    for (const std::size_t step : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
      Xxh64 h;
      h.update(data.data(), cut);
      for (std::size_t at = cut; at < data.size(); at += step) {
        h.update(data.data() + at, std::min(step, data.size() - at));
      }
      ASSERT_EQ(h.digest(), whole) << "cut " << cut << ", step " << step;
    }
  }
}

TEST(ServingContainerTest, EveryByteIsCoveredAndVersionOneIsRefused) {
  // A small multi-slab image whose slab sizes leave padding between them.
  const std::string path = ::testing::TempDir() + "serving_every_byte.img";
  {
    const std::vector<double> a = {1.0, -2.5, 3.25};
    const std::vector<std::uint8_t> b = {1, 2, 3, 4, 5};
    const std::vector<float> c = {0.5f, 0.25f};
    TableImageWriter writer(path, "TEST");
    writer.add_slab("a", std::span<const double>(a));
    writer.add_slab("b", std::span<const std::uint8_t>(b));
    writer.add_slab("c", std::span<const float>(c));
    writer.finish();
  }
  const std::vector<unsigned char> good = read_file(path);
  std::uint64_t stored = 0;
  std::memcpy(&stored, good.data() + kChecksumField, 8);
  ASSERT_EQ(stored, checksum_by_definition(good));
  ASSERT_NO_THROW(TableImage::open(path));

  for (std::size_t i = 0; i < good.size(); ++i) {
    if (i >= kChecksumField && i < kChecksumField + 8) continue;
    std::vector<unsigned char> bad = good;
    bad[i] ^= 0x01;
    write_file(path, bad);
    // The magic and the version are read first: they say what the file is
    // and how its checksum is defined.  Every later byte is hashed.
    const char* want = i < kVersionField       ? "bad magic"
                       : i < kVersionField + 4 ? "bad version"
                                               : "checksum mismatch";
    ASSERT_EQ(open_failure(path), want) << "flipped byte " << i << " of " << good.size();
  }

  // A version-1 image (byte-wise FNV-1a checksum) is refused outright.
  std::vector<unsigned char> version_one = good;
  const std::uint32_t one = 1;
  std::memcpy(version_one.data() + kVersionField, &one, 4);
  write_file(path, version_one);
  EXPECT_EQ(open_failure(path), "bad version");
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, WrappingDirectoryEntryIsRejected) {
  // offset + bytes wraps past 2^64 to 64, under file_bytes; with a valid
  // checksum the file reaches the directory bounds check, which must
  // refuse it instead of handing out a view past the mapping.
  const std::string path = temp_path("serving_wrapping_entry.img");
  pair_->save(path);
  std::vector<unsigned char> bytes = read_file(path);
  const std::uint64_t offset = 1600;
  const std::uint64_t size = std::numeric_limits<std::uint64_t>::max() - 1535;  // 2^64 - 1536
  std::memcpy(bytes.data() + kEntry0Offset, &offset, 8);
  std::memcpy(bytes.data() + kEntry0Bytes, &size, 8);
  const std::uint64_t checksum = checksum_by_definition(bytes);
  std::memcpy(bytes.data() + kChecksumField, &checksum, 8);
  write_file(path, bytes);
  EXPECT_EQ(open_failure(path), "bad directory");
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, TableIoErrorCarriesOpReasonPath) {
  const std::string missing = "/definitely/missing/table.img";
  try {
    TableImage::open(missing);
    FAIL() << "missing file must not open";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.op(), "TableImage::open");
    EXPECT_EQ(e.reason(), "cannot open");
    EXPECT_EQ(e.path(), missing);
    // And it still is a runtime_error, so pre-serving catch sites hold.
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
  EXPECT_THROW(LogicTable::load(missing), std::runtime_error);
}

TEST_F(ServingImageTest, WrongKindIsRejected) {
  const std::string path = temp_path("serving_kind_mismatch.img");
  joint_->save(path);
  try {
    LogicTable::load(path);
    FAIL() << "joint image must not load as a pairwise table";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.reason(), "wrong table kind");
  }
  EXPECT_THROW(LogicTable::open_mapped(path), TableIoError);
  std::remove(path.c_str());
}

TEST_F(ServingImageTest, QuantizedImagesLoadViaDequantization) {
  for (const Quantization quant : {Quantization::kFloat16, Quantization::kInt8}) {
    const std::string path = temp_path("serving_pair_quant.img");
    pair_->save(path, quant);
    // open_mapped promises float bytes, so quantized images must refuse...
    EXPECT_THROW(LogicTable::open_mapped(path), TableIoError);
    // ...while load() dequantizes into an owning table of the same shape.
    const LogicTable loaded = LogicTable::load(path);
    ASSERT_EQ(loaded.raw().size(), pair_->raw().size());
    double worst = 0.0;
    double scale = 1.0;
    for (std::size_t i = 0; i < pair_->raw().size(); ++i) {
      worst = std::max(worst, std::abs(static_cast<double>(loaded.raw()[i]) -
                                       static_cast<double>(pair_->raw()[i])));
      scale = std::max(scale, std::abs(static_cast<double>(pair_->raw()[i])));
    }
    // Coarse relative-error sanity; the policy-level impact is pinned in
    // test_serving_server.cpp.
    EXPECT_LT(worst / scale, quant == Quantization::kFloat16 ? 1e-3 : 1e-2);
    std::remove(path.c_str());
  }
}

// Writers for the pre-serving ad-hoc streams: raw host-order fields, an
// axis as (lo, hi, count), and a tail of dynamics, costs, value count and
// payload shared by both table kinds.
template <class T>
void put(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

void put_axis(std::ofstream& out, const UniformAxis& axis) {
  put(out, axis.lo());
  put(out, axis.hi());
  put(out, std::uint64_t{axis.count()});
}

template <class Config>
void put_tail(std::ofstream& out, const Config& c, const std::vector<float>& values) {
  for (const double d : {c.dynamics.dt_s, c.dynamics.accel_initial_fps2,
                         c.dynamics.accel_strength_fps2, c.dynamics.accel_noise_sigma_fps2,
                         c.costs.nmac_cost, c.costs.nmac_h_ft, c.costs.maneuver_cost,
                         c.costs.strengthened_maneuver_cost, c.costs.level_reward,
                         c.costs.strengthen_cost, c.costs.reversal_cost,
                         c.costs.termination_cost}) {
    put(out, d);
  }
  put(out, std::uint64_t{values.size()});
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(values.size() * sizeof(float)));
}

TEST_F(ServingImageTest, LegacyFormatsAreRejected) {
  // Complete, well-formed "ACX1" and "JTX1" streams: only the TableImage
  // container loads, so each is refused at the container magic.
  const std::string pair_path = temp_path("serving_pair_legacy.bin");
  {
    std::ofstream out(pair_path, std::ios::binary);
    const AcasXuConfig& c = pair_->config();
    put(out, std::uint32_t{0x41435831});  // "ACX1"
    put_axis(out, c.space.h_ft);
    put_axis(out, c.space.dh_own_fps);
    put_axis(out, c.space.dh_int_fps);
    put(out, std::uint64_t{c.space.tau_max});
    put_tail(out, c, pair_->raw());
  }
  const std::string joint_path = temp_path("serving_joint_legacy.bin");
  {
    std::ofstream out(joint_path, std::ios::binary);
    const JointConfig& c = joint_->config();
    put(out, std::uint32_t{0x4a545831});  // "JTX1"
    put_axis(out, c.space.h_ft);
    put_axis(out, c.space.dh_own_fps);
    put_axis(out, c.space.dh_int_fps);
    put_axis(out, c.secondary.h2_ft);
    put(out, std::uint64_t{c.space.tau_max});
    put(out, std::uint64_t{c.secondary.num_delta_bins});
    put(out, c.secondary.delta_step_s);
    put(out, c.secondary.sense_rate_fps);
    put(out, c.secondary.sense_level_threshold_fps);
    put_tail(out, c, joint_->raw());
  }
  try {
    LogicTable::load(pair_path);
    FAIL() << "an ACX1 stream must not load";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.reason(), "bad magic");
  }
  try {
    JointLogicTable::load(joint_path);
    FAIL() << "a JTX1 stream must not load";
  } catch (const TableIoError& e) {
    EXPECT_EQ(e.reason(), "bad magic");
  }
  std::remove(pair_path.c_str());
  std::remove(joint_path.c_str());
}

TEST_F(ServingImageTest, SlabDirectoryIsTyped) {
  const std::string path = temp_path("serving_pair_slabs.img");
  pair_->save(path);
  const TableImage image = TableImage::open(path);
  EXPECT_EQ(image.kind_name(), kKindPairwise);
  EXPECT_TRUE(image.has_slab(kSlabValues));
  EXPECT_TRUE(image.has_slab(kSlabMetaF64));
  EXPECT_EQ(image.slab_dtype(kSlabValues), SlabType::kF32);
  // A typed view with the wrong element type must refuse.
  EXPECT_THROW(image.slab_as<double>(kSlabValues), TableIoError);
  EXPECT_THROW(image.slab(std::string_view("no_such_slab")), TableIoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cav::serving
