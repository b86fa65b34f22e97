// Sharded offline solves (dist/solve_driver.h) against real cav_worker
// processes: 2-way pair tau-layer sweeps and joint (delta, sense) slab
// handout must reassemble BIT-identically to the serial solvers, survive
// an unspawnable fleet, and the stencil TableImage round trip
// (acasx/stencil_image.h) must validate shapes loudly.
#include "dist/solve_driver.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "acasx/stencil_image.h"
#include "serving/table_image.h"

namespace cav::dist {
namespace {

using acasx::AcasXuConfig;
using acasx::JointConfig;

/// Small enough for a sub-second solve, big enough that every tau layer
/// shards into unequal slices across 2 workers.
AcasXuConfig tiny_pair_config() {
  AcasXuConfig c;
  c.space.h_ft = UniformAxis(-800.0, 800.0, 17);
  c.space.dh_own_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  c.space.dh_int_fps = UniformAxis(-2500.0 / 60.0, 2500.0 / 60.0, 5);
  c.space.tau_max = 12;
  return c;
}

JointConfig tiny_joint_config() {
  JointConfig c;
  c.space = tiny_pair_config().space;
  // tau horizon must cover the last delta bin (1 * delta_step_s = 10 s).
  c.space.tau_max = 12;
  c.secondary.h2_ft = UniformAxis(-600.0, 600.0, 7);
  return c;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "dist_solve_" + std::to_string(::getpid()) + "_" + name;
}

/// RAII file cleanup.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) : path(temp_path(name)) {}
  ~TempFile() { std::remove(path.c_str()); }
};

void expect_tables_identical(const float* a, const float* b, std::size_t n) {
  ASSERT_NE(a, b);
  EXPECT_EQ(std::memcmp(a, b, n * sizeof(float)), 0) << "tables must match bit for bit";
}

TEST(DistSolveTest, ShardedPairSolveIsBitIdenticalToSerial) {
  const AcasXuConfig config = tiny_pair_config();
  const acasx::LogicTable serial = acasx::solve_logic_table(config);

  TempFile image("pair_sten.cavt");
  SolveDriverOptions options;
  options.num_workers = 2;
  ShardedSolveReport report;
  const acasx::LogicTable sharded =
      solve_logic_table_sharded(config, image.path, options, &report);

  ASSERT_EQ(sharded.num_entries(), serial.num_entries());
  expect_tables_identical(sharded.values(), serial.values(), serial.num_entries());
  EXPECT_FALSE(report.degraded);
  EXPECT_GT(report.workers_used, 0u) << "the fleet must have carried real work";
  EXPECT_GT(report.stencil_build_s, 0.0) << "first run compiles the stencil image";

  // Second run: the stencil image is reused, and the answer is unchanged.
  ShardedSolveReport reuse;
  const acasx::LogicTable again =
      solve_logic_table_sharded(config, image.path, options, &reuse);
  expect_tables_identical(again.values(), serial.values(), serial.num_entries());
  EXPECT_EQ(reuse.stencil_build_s, 0.0) << "existing image must be reused, not recompiled";
}

/// Overwrite bytes of an existing file in place; a negative `offset`
/// counts from the end.
void patch_file(const std::string& path, std::streamoff offset, const void* data,
                std::size_t bytes) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  f.seekp(offset, offset < 0 ? std::ios::end : std::ios::beg);
  f.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
}

std::string file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// Turn a current TableImage into a version-1 file (the container version
/// is the u32 after the magic).
void make_version_one(const std::string& path) {
  const std::uint32_t version_one = 1;
  patch_file(path, 4, &version_one, sizeof version_one);
}

TEST(DistSolveTest, StaleStencilImageIsRecompiled) {
  // An image compiled under a different config, written in an older
  // container version, or corrupted must not be trusted: each is compiled
  // over, and the table is the serial one every time.  A file that is not
  // a stencil image is refused instead.
  AcasXuConfig a = tiny_pair_config();
  TempFile image("stale_sten.cavt");
  { acasx::CompiledAcasModel(a).save_stencils(image.path); }

  AcasXuConfig b = a;
  b.space.tau_max = 9;           // different recursion depth
  b.costs.nmac_cost = 20000.0;   // different preference model
  SolveDriverOptions options;
  options.num_workers = 2;
  const acasx::LogicTable serial = acasx::solve_logic_table(b);
  const auto expect_recompiled = [&](const char* stale) {
    ShardedSolveReport report;
    const acasx::LogicTable sharded = solve_logic_table_sharded(b, image.path, options, &report);
    EXPECT_GT(report.stencil_build_s, 0.0) << stale << " image must be recompiled";
    ASSERT_EQ(sharded.num_entries(), serial.num_entries());
    expect_tables_identical(sharded.values(), serial.values(), serial.num_entries());
  };

  expect_recompiled("mismatched");
  make_version_one(image.path);
  expect_recompiled("version-1");
  const char garbage = 0x5A;
  patch_file(image.path, -64, &garbage, 1);
  expect_recompiled("corrupted");

  // A deployed logic table at the stencil path is someone else's file:
  // the solve refuses it and leaves it intact.
  acasx::solve_logic_table(a).save(image.path);
  const std::string deployed = file_bytes(image.path);
  try {
    solve_logic_table_sharded(b, image.path, options);
    ADD_FAILURE() << "a PAIR table image must not be taken for a stencil cache";
  } catch (const serving::TableIoError& e) {
    EXPECT_EQ(e.reason(), "wrong table kind");
  }
  EXPECT_EQ(file_bytes(image.path), deployed) << "the PAIR table image must be left intact";
}

TEST(DistSolveTest, ShardedJointSolveIsBitIdenticalToSerial) {
  const JointConfig config = tiny_joint_config();
  const acasx::JointLogicTable serial = acasx::solve_joint_table(config);

  TempFile image("joint_sten.cavt");
  SolveDriverOptions options;
  options.num_workers = 2;
  ShardedSolveReport report;
  const acasx::JointLogicTable sharded =
      solve_joint_table_sharded(config, image.path, options, &report);

  ASSERT_EQ(sharded.num_entries(), serial.num_entries());
  expect_tables_identical(sharded.values(), serial.values(), serial.num_entries());
  EXPECT_FALSE(report.degraded);
  EXPECT_GT(report.workers_used, 0u);

  // A stencil image from an older container version is compiled over too.
  make_version_one(image.path);
  ShardedSolveReport stale;
  const acasx::JointLogicTable again =
      solve_joint_table_sharded(config, image.path, options, &stale);
  EXPECT_GT(stale.stencil_build_s, 0.0) << "version-1 image must be recompiled";
  expect_tables_identical(again.values(), serial.values(), serial.num_entries());
}

TEST(DistSolveTest, UnspawnableFleetFallsBackBitIdentically) {
  // Degraded-mode contract: with no usable workers at all, both solves
  // complete in-process and still produce the exact serial table.
  const AcasXuConfig config = tiny_pair_config();
  TempFile image("fallback_sten.cavt");
  SolveDriverOptions options;
  options.num_workers = 2;
  options.worker_path = "/nonexistent/cav_worker";
  ShardedSolveReport report;
  const acasx::LogicTable sharded =
      solve_logic_table_sharded(config, image.path, options, &report);
  EXPECT_TRUE(report.degraded);
  EXPECT_EQ(report.workers_used, 0u);

  const acasx::LogicTable serial = acasx::solve_logic_table(config);
  expect_tables_identical(sharded.values(), serial.values(), serial.num_entries());

  TempFile jimage("fallback_sten2.cavt");
  ShardedSolveReport jreport;
  const acasx::JointLogicTable jsharded =
      solve_joint_table_sharded(tiny_joint_config(), jimage.path, options, &jreport);
  EXPECT_TRUE(jreport.degraded);
  const acasx::JointLogicTable jserial = acasx::solve_joint_table(tiny_joint_config());
  expect_tables_identical(jsharded.values(), jserial.values(), jserial.num_entries());
}

TEST(DistStencilImageTest, PairRoundTripSolvesIdentically) {
  const AcasXuConfig config = tiny_pair_config();
  const acasx::CompiledAcasModel compiled(config);
  TempFile image("rt_sten.cavt");
  compiled.save_stencils(image.path);

  const acasx::CompiledAcasModel reopened = acasx::CompiledAcasModel::open_stencils(image.path);
  EXPECT_EQ(reopened.stencil_entries(), compiled.stencil_entries());

  // The mmap'd stencils must drive the solver to the exact same table.
  const acasx::LogicTable from_disk = reopened.solve();
  const acasx::LogicTable from_memory = compiled.solve();
  ASSERT_EQ(from_disk.num_entries(), from_memory.num_entries());
  expect_tables_identical(from_disk.values(), from_memory.values(), from_memory.num_entries());
}

TEST(DistStencilImageTest, JointRoundTripSolvesIdentically) {
  const JointConfig config = tiny_joint_config();
  const acasx::JointOfflineSolver compiled(config);
  TempFile image("rt_sten2.cavt");
  compiled.save_stencils(image.path);

  const acasx::JointOfflineSolver reopened = acasx::JointOfflineSolver::open_stencils(image.path);
  EXPECT_EQ(reopened.stencil_entries(), compiled.stencil_entries());
  const acasx::JointLogicTable from_disk = reopened.solve();
  const acasx::JointLogicTable from_memory = compiled.solve();
  ASSERT_EQ(from_disk.num_entries(), from_memory.num_entries());
  expect_tables_identical(from_disk.values(), from_memory.values(), from_memory.num_entries());
}

TEST(DistStencilImageTest, KindMismatchIsRejected) {
  // A pair-stencil image must not open as a joint one (and vice versa):
  // the kind fourcc gates the loader before any slab is trusted.
  TempFile image("kind_sten.cavt");
  acasx::CompiledAcasModel(tiny_pair_config()).save_stencils(image.path);
  JointConfig config_out;
  EXPECT_THROW(acasx::open_joint_stencil_image(image.path, &config_out),
               serving::TableIoError);
  EXPECT_THROW(acasx::JointOfflineSolver::open_stencils(image.path), serving::TableIoError);
}

TEST(DistStencilImageTest, MissingAndGarbageFilesAreRejected) {
  EXPECT_THROW(acasx::CompiledAcasModel::open_stencils(temp_path("never_written.cavt")),
               serving::TableIoError);

  TempFile garbage("garbage_sten.cavt");
  {
    std::ofstream out(garbage.path, std::ios::binary);
    out << "this is not a table image at all, but it is long enough to mmap";
  }
  EXPECT_THROW(acasx::CompiledAcasModel::open_stencils(garbage.path), serving::TableIoError);
}

TEST(DistStencilImageTest, TruncatedImageIsRejected) {
  TempFile image("trunc_sten.cavt");
  acasx::CompiledAcasModel(tiny_pair_config()).save_stencils(image.path);
  // Chop the payload: the image checksum / slab bounds must catch it.
  std::ifstream in(image.path, std::ios::binary | std::ios::ate);
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::string bytes(static_cast<std::size_t>(size) / 2, '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  {
    std::ofstream out(image.path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(acasx::CompiledAcasModel::open_stencils(image.path), serving::TableIoError);
}

}  // namespace
}  // namespace cav::dist
