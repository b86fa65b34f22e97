// Trajectory recording and rendering — the headless substitute for the
// paper tool's MASON visualization mode.  Examples dump CSV files and
// render top/side ASCII views of encounters (cf. Figs. 5, 7, 8).
#pragma once

#include <string>
#include <vector>

#include "util/vec3.h"

namespace cav::sim {

/// One decision-cycle snapshot of an N-aircraft run: index 0 is the
/// own-ship, the rest are intruders (same order as the AgentSetup vector).
struct MultiTrajectoryFrame {
  double t_s = 0.0;
  std::vector<Vec3> position_m;
  std::vector<double> vs_mps;
  std::vector<std::string> advisory;
};

using MultiTrajectory = std::vector<MultiTrajectoryFrame>;

/// Own-ship vs first intruder (aircraft 0 and 1), one sample per row: t,
/// positions, rates, advisories, and their 3-D separation.
void write_trajectory_csv(const MultiTrajectory& trajectory, const std::string& path);

/// Long-format CSV for N-aircraft runs: one row per (sample, aircraft).
void write_multi_trajectory_csv(const MultiTrajectory& trajectory, const std::string& path);

/// Plan view (x-y) of aircraft 0 and 1; own-ship 'o', intruder 'i'; samples
/// where an advisory was active are upper-cased (cf. the red/green maneuver
/// dots in Fig. 5).
std::string render_top_view(const MultiTrajectory& trajectory, int width = 72, int height = 20);

/// Profile view (time vs altitude) of aircraft 0 and 1, same glyph scheme.
std::string render_side_view(const MultiTrajectory& trajectory, int width = 72,
                             int height = 20);

}  // namespace cav::sim
