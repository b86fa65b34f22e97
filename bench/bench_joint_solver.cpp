// E13 — Joint-threat offline solve cost: what the two-intruder joint
// table (acasx/joint_solver.h) costs to build relative to the pairwise
// table, how the compile-once / solve-per-revision split amortizes (the
// PR 2 refresh_costs path lifted to the joint state), and how the serial
// and pooled sweeps compare.  The paper's footnote-2 "<5 min on a laptop"
// budget is the yardstick: the joint state multiplies the pairwise grid
// by the secondary abstraction (h2 axis x delta bins x sense classes), so
// this bench is where that multiplier is measured instead of guessed.
#include <chrono>
#include <cstdio>

#include "acasx/joint_solver.h"
#include "acasx/offline_solver.h"
#include "bench_common.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cav;
  bench::init(argc, argv);
  bench::banner("E13: joint-threat offline solve cost (pairwise vs joint, refresh loop)");

  const acasx::JointConfig joint_config =
      bench::smoke() ? acasx::JointConfig::coarse() : acasx::JointConfig::standard();
  acasx::AcasXuConfig pairwise_config = bench::standard_or_smoke_config();

  const std::size_t joint_entries = joint_config.secondary.num_slabs() *
                                    (joint_config.space.tau_max + 1) *
                                    joint_config.grid().size() * acasx::kNumAdvisories *
                                    acasx::kNumAdvisories;
  std::printf("joint state: %zu grid points x %zu slabs x %zu tau layers "
              "(%zu Q entries, %.0f MB)\n\n",
              joint_config.grid().size(), joint_config.secondary.num_slabs(),
              joint_config.space.tau_max + 1, joint_entries,
              static_cast<double>(joint_entries) * sizeof(float) / 1e6);

  // Pairwise reference solve (same machinery, one intruder).
  {
    acasx::SolveStats stats;
    acasx::solve_logic_table(pairwise_config, &bench::pool(), &stats);
    std::printf("pairwise solve (pooled):      %8.3f s  (stencils %.3f s)\n",
                stats.wall_seconds, stats.stencil_build_seconds);
    bench::record_metric("e13.pairwise.solve_s", stats.wall_seconds);
  }

  // One-shot joint solve: serial vs pooled.
  {
    acasx::SolveStats stats;
    acasx::solve_joint_table(joint_config, nullptr, &stats);
    std::printf("joint one-shot (serial):      %8.3f s  (stencils %.3f s, %zu entries)\n",
                stats.wall_seconds, stats.stencil_build_seconds, stats.stencil_entries);
    bench::record_metric("e13.joint.oneshot_serial_s", stats.wall_seconds);
  }
  acasx::SolveStats pooled_stats;
  acasx::solve_joint_table(joint_config, &bench::pool(), &pooled_stats);
  std::printf("joint one-shot (pooled):      %8.3f s  (stencils %.3f s)\n",
              pooled_stats.wall_seconds, pooled_stats.stencil_build_seconds);
  bench::record_metric("e13.joint.oneshot_pooled_s", pooled_stats.wall_seconds);

  // Compile-once / solve-per-revision: the cost-revision loop never pays
  // the stencil build again.
  const auto compile_start = std::chrono::steady_clock::now();
  const acasx::JointOfflineSolver solver(joint_config, &bench::pool());
  const double compile_s = seconds_since(compile_start);
  std::printf("\ncompile stencils once:        %8.3f s  (%zu entries)\n", compile_s,
              solver.stencil_entries());
  bench::record_metric("e13.joint.compile_s", compile_s);

  const int revisions = bench::smoke() ? 2 : 4;
  acasx::CostModel costs = joint_config.costs;
  double revise_total = 0.0;
  for (int r = 0; r < revisions; ++r) {
    costs.maneuver_cost *= 1.1;  // a §III-style preference re-tune
    acasx::SolveStats stats;
    solver.solve(costs, &bench::pool(), &stats);
    revise_total += stats.wall_seconds;
  }
  std::printf("re-solve per cost revision:   %8.3f s  (mean of %d; one-shot pays %.3f s)\n",
              revise_total / revisions, revisions, pooled_stats.wall_seconds);
  bench::record_metric("e13.joint.refresh_solve_s", revise_total / revisions);
  return 0;
}
