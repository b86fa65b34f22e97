// Sharded offline solves over the same cav_worker fleet as the campaign
// driver.
//
// Two workloads, two sharding shapes:
//
//  * Pairwise logic table: tau layers are SEQUENTIAL (layer t needs the
//    full value layer t-1), so the driver broadcasts v_prev each layer
//    and shards the layer's grid-point sweep into contiguous slices.
//    Slices land back in the table exactly where the serial sweep would
//    have written them (offline_solver.h's sweep_pair_layer_range runs on
//    both sides), so the assembled table is BIT-IDENTICAL to
//    solve_logic_table(config).
//
//  * Joint table: (delta bin, sense class) slabs are fully INDEPENDENT,
//    so they are handed out dynamically like campaign stripes; each
//    worker solves whole slabs (acasx/joint_solver.h's solve_joint_slab)
//    and the driver concatenates — bit-identical to solve_joint_table.
//
// Workers never recompile the transition structure: the driver compiles
// the stencils once (or reuses `stencil_image` when it already exists),
// dumps them as a "STEN"/"STE2" TableImage, and every worker mmaps that
// one file (shared physical pages fleet-wide).
//
// Degraded-mode contract mirrors the campaign driver: a dead worker's
// slice/slab is recomputed — in-process via the identical kernel — never
// approximated; the solve completes (possibly slowly) as long as the
// driver lives.
#pragma once

#include <cstddef>
#include <string>

#include "acasx/joint_table.h"
#include "acasx/logic_table.h"

namespace cav::dist {

struct SolveDriverOptions {
  /// Worker processes.  0 or 1 solves fully in-process.
  std::size_t num_workers = 2;
  /// Path to the cav_worker binary; empty resolves next to /proc/self/exe.
  std::string worker_path;
};

/// What a sharded solve actually did — determinism is guaranteed either
/// way; this reports how much of the work ran where.
struct ShardedSolveReport {
  std::size_t workers_used = 0;    ///< workers that answered at least once
  std::size_t requeues = 0;        ///< slices/slabs recomputed after a loss
  bool degraded = false;           ///< some worker died mid-solve
  double stencil_build_s = 0.0;    ///< compiling + dumping (0 when reused)
  double wall_s = 0.0;
};

/// Sharded pairwise solve.  `stencil_image` names the "STEN" image to
/// share with workers: an image that opens and matches `config` is
/// reused; a missing, corrupted, truncated, older-format or mismatched one
/// is compiled and written over first.  A file that is not a stencil image
/// at all throws serving::TableIoError and is left as it is.  Returns a
/// table bit-identical to solve_logic_table(config) (asserted in
/// tests/test_dist_solve.cpp).
acasx::LogicTable solve_logic_table_sharded(const acasx::AcasXuConfig& config,
                                            const std::string& stencil_image,
                                            const SolveDriverOptions& options = {},
                                            ShardedSolveReport* report = nullptr);

/// Sharded joint solve over (delta bin, sense) slabs; `stencil_image` is
/// the "STE2" analogue.  Bit-identical to solve_joint_table(config).
acasx::JointLogicTable solve_joint_table_sharded(const acasx::JointConfig& config,
                                                 const std::string& stencil_image,
                                                 const SolveDriverOptions& options = {},
                                                 ShardedSolveReport* report = nullptr);

}  // namespace cav::dist
