#include "sim/trajectory.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/csv.h"
#include "util/expect.h"

namespace cav::sim {
namespace {

struct Bounds {
  double x_lo = std::numeric_limits<double>::infinity();
  double x_hi = -std::numeric_limits<double>::infinity();
  double y_lo = std::numeric_limits<double>::infinity();
  double y_hi = -std::numeric_limits<double>::infinity();

  void include(double x, double y) {
    x_lo = std::min(x_lo, x);
    x_hi = std::max(x_hi, x);
    y_lo = std::min(y_lo, y);
    y_hi = std::max(y_hi, y);
  }
  void pad() {
    if (x_hi - x_lo < 1e-9) { x_lo -= 1.0; x_hi += 1.0; }
    if (y_hi - y_lo < 1e-9) { y_lo -= 1.0; y_hi += 1.0; }
  }
};

void plot_point(std::vector<std::string>& canvas, const Bounds& b, double x, double y, char glyph) {
  const int w = static_cast<int>(canvas.front().size());
  const int h = static_cast<int>(canvas.size());
  const int col = static_cast<int>(std::lround((x - b.x_lo) / (b.x_hi - b.x_lo) * (w - 1)));
  const int row = static_cast<int>(std::lround((y - b.y_lo) / (b.y_hi - b.y_lo) * (h - 1)));
  const int r = h - 1 - std::clamp(row, 0, h - 1);
  const int c = std::clamp(col, 0, w - 1);
  canvas[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)] = glyph;
}

/// The pairwise views read aircraft 0 (own-ship) and 1 of every frame.
void expect_pair(const MultiTrajectoryFrame& s) {
  expect(s.position_m.size() >= 2 && s.vs_mps.size() >= 2 && s.advisory.size() >= 2,
         "trajectory sample holds aircraft 0 and 1");
}

std::string render(const MultiTrajectory& traj, int width, int height, bool top_view) {
  if (traj.empty()) return "(empty trajectory)\n";
  Bounds b;
  for (const auto& s : traj) {
    expect_pair(s);
    const Vec3& own = s.position_m[0];
    const Vec3& intr = s.position_m[1];
    if (top_view) {
      b.include(own.x, own.y);
      b.include(intr.x, intr.y);
    } else {
      b.include(s.t_s, own.z);
      b.include(s.t_s, intr.z);
    }
  }
  b.pad();

  std::vector<std::string> canvas(static_cast<std::size_t>(height),
                                  std::string(static_cast<std::size_t>(width), ' '));
  for (const auto& s : traj) {
    const Vec3& own = s.position_m[0];
    const Vec3& intr = s.position_m[1];
    const char own_glyph = (s.advisory[0] != "COC") ? 'O' : 'o';
    const char intr_glyph = (s.advisory[1] != "COC") ? 'I' : 'i';
    if (top_view) {
      plot_point(canvas, b, own.x, own.y, own_glyph);
      plot_point(canvas, b, intr.x, intr.y, intr_glyph);
    } else {
      plot_point(canvas, b, s.t_s, own.z, own_glyph);
      plot_point(canvas, b, s.t_s, intr.z, intr_glyph);
    }
  }

  std::ostringstream out;
  out << (top_view ? "top view (x: east [m], y: north [m])"
                   : "side view (x: time [s], y: altitude [m])")
      << "  —  'o'/'i' free flight, 'O'/'I' advisory active\n";
  out << "  y: [" << b.y_lo << ", " << b.y_hi << "]\n";
  for (const auto& line : canvas) out << "  |" << line << '\n';
  out << "  +" << std::string(static_cast<std::size_t>(width), '-') << "  x: [" << b.x_lo << ", "
      << b.x_hi << "]\n";
  return out.str();
}

}  // namespace

void write_trajectory_csv(const MultiTrajectory& trajectory, const std::string& path) {
  CsvWriter csv(path);
  csv.header({"t_s", "own_x", "own_y", "own_z", "own_vs", "own_advisory", "int_x", "int_y",
              "int_z", "int_vs", "int_advisory", "separation_m"});
  for (const auto& s : trajectory) {
    expect_pair(s);
    const Vec3& own = s.position_m[0];
    const Vec3& intr = s.position_m[1];
    csv.cell(s.t_s)
        .cell(own.x)
        .cell(own.y)
        .cell(own.z)
        .cell(s.vs_mps[0])
        .cell(s.advisory[0])
        .cell(intr.x)
        .cell(intr.y)
        .cell(intr.z)
        .cell(s.vs_mps[1])
        .cell(s.advisory[1])
        .cell(distance(own, intr));
    csv.end_row();
  }
}

void write_multi_trajectory_csv(const MultiTrajectory& trajectory, const std::string& path) {
  CsvWriter csv(path);
  csv.header({"t_s", "aircraft", "x", "y", "z", "vs", "advisory"});
  for (const auto& s : trajectory) {
    for (std::size_t i = 0; i < s.position_m.size(); ++i) {
      csv.cell(s.t_s)
          .cell(i)
          .cell(s.position_m[i].x)
          .cell(s.position_m[i].y)
          .cell(s.position_m[i].z)
          .cell(s.vs_mps[i])
          .cell(s.advisory[i]);
      csv.end_row();
    }
  }
}

std::string render_top_view(const MultiTrajectory& trajectory, int width, int height) {
  return render(trajectory, width, height, /*top_view=*/true);
}

std::string render_side_view(const MultiTrajectory& trajectory, int width, int height) {
  return render(trajectory, width, height, /*top_view=*/false);
}

}  // namespace cav::sim
