// Trajectory recording/rendering tests: CSV structure, ASCII view
// rendering of aircraft 0 and 1, and the turn-command channel of the UAV
// agent (added with the horizontal logic).
#include "sim/trajectory.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/uav.h"
#include "util/angles.h"
#include "util/expect.h"
#include "util/rng.h"

namespace cav::sim {
namespace {

/// Own-ship (aircraft 0) and one intruder (aircraft 1) over two samples.
MultiTrajectory two_point_trajectory() {
  MultiTrajectoryFrame a;
  a.t_s = 0.0;
  a.position_m = {{0.0, 0.0, 1000.0}, {2000.0, 100.0, 1050.0}};
  a.vs_mps = {0.0, 0.0};
  a.advisory = {"COC", "COC"};
  MultiTrajectoryFrame b;
  b.t_s = 10.0;
  b.position_m = {{400.0, 0.0, 1010.0}, {1600.0, 100.0, 1040.0}};
  b.vs_mps = {5.0, -5.0};
  b.advisory = {"CL1500", "DES1500"};
  return {a, b};
}

TEST(Trajectory, CsvHasHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/cav_traj_test.csv";
  const MultiTrajectory traj = two_point_trajectory();
  write_trajectory_csv(traj, path);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("t_s"), std::string::npos);
  EXPECT_NE(line.find("own_advisory"), std::string::npos);
  int rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // The last column is the separation of the two stored positions.
    const double separation = std::stod(line.substr(line.rfind(',') + 1));
    const auto& s = traj[static_cast<std::size_t>(rows)];
    EXPECT_NEAR(separation, distance(s.position_m[0], s.position_m[1]), 1e-6) << line;
    ++rows;
  }
  EXPECT_EQ(rows, 2);
  std::remove(path.c_str());
}

TEST(Trajectory, TopViewMarksAdvisoryStates) {
  const std::string view = render_top_view(two_point_trajectory());
  // Free flight lowercase, advisory uppercase.
  EXPECT_NE(view.find('o'), std::string::npos);
  EXPECT_NE(view.find('O'), std::string::npos);
  EXPECT_NE(view.find('I'), std::string::npos);
  EXPECT_NE(view.find("top view"), std::string::npos);
}

TEST(Trajectory, SideViewUsesTimeAxis) {
  const std::string view = render_side_view(two_point_trajectory());
  EXPECT_NE(view.find("side view"), std::string::npos);
  EXPECT_NE(view.find("altitude"), std::string::npos);
}

TEST(Trajectory, EmptyTrajectoryRendersGracefully) {
  EXPECT_NE(render_top_view({}).find("empty"), std::string::npos);
  EXPECT_NE(render_side_view({}).find("empty"), std::string::npos);
}

TEST(Trajectory, PairwiseViewsRejectSingleAircraftFrames) {
  MultiTrajectory lone = two_point_trajectory();
  lone.back().position_m.pop_back();
  EXPECT_THROW(render_top_view(lone), ContractViolation);
  EXPECT_THROW(render_side_view(lone), ContractViolation);
  const std::string path = ::testing::TempDir() + "/cav_traj_lone.csv";
  EXPECT_THROW(write_trajectory_csv(lone, path), ContractViolation);
  std::remove(path.c_str());
}

TEST(TurnCommand, AgentTurnsAtCommandedRate) {
  UavState init;
  init.ground_speed_mps = 30.0;
  init.bearing_rad = 0.0;
  UavAgent agent(0, init);
  TurnCommand turn;
  turn.active = true;
  turn.rate_rad_s = deg_to_rad(6.0);
  agent.set_turn_command(turn);
  RngStream rng(1);
  for (int i = 0; i < 100; ++i) agent.step(0.1, DisturbanceConfig::none(), rng);
  // 10 s at 6 deg/s = 60 degrees.
  EXPECT_NEAR(agent.state().bearing_rad, deg_to_rad(60.0), 1e-9);
}

TEST(TurnCommand, InactiveHoldsBearing) {
  UavState init;
  init.ground_speed_mps = 30.0;
  init.bearing_rad = 0.7;
  UavAgent agent(0, init);
  RngStream rng(2);
  for (int i = 0; i < 100; ++i) agent.step(0.1, DisturbanceConfig::none(), rng);
  EXPECT_DOUBLE_EQ(agent.state().bearing_rad, 0.7);
}

TEST(TurnCommand, BearingWrapsAcrossPi) {
  UavState init;
  init.ground_speed_mps = 30.0;
  init.bearing_rad = 3.1;  // close to +pi
  UavAgent agent(0, init);
  TurnCommand turn;
  turn.active = true;
  turn.rate_rad_s = 0.2;
  agent.set_turn_command(turn);
  RngStream rng(3);
  for (int i = 0; i < 10; ++i) {
    agent.step(0.1, DisturbanceConfig::none(), rng);
    // The cached bearing trig follows the wrap bit for bit.
    ASSERT_EQ(agent.velocity_mps(), agent.state().velocity_mps()) << "step " << i;
  }
  // 3.1 + 0.2 = 3.3 -> wraps to 3.3 - 2*pi.
  EXPECT_NEAR(agent.state().bearing_rad, 3.3 - kTwoPi, 1e-9);
}

TEST(TurnCommand, TurningTracesAnArc) {
  UavState init;
  init.ground_speed_mps = 30.0;
  UavAgent agent(0, init);
  TurnCommand turn;
  turn.active = true;
  turn.rate_rad_s = deg_to_rad(6.0);
  agent.set_turn_command(turn);
  RngStream rng(4);
  // Full circle takes 60 s; fly half of it.
  for (int i = 0; i < 300; ++i) {
    agent.step(0.1, DisturbanceConfig::none(), rng);
    // The cached bearing trig follows every turn step bit for bit.
    ASSERT_EQ(agent.velocity_mps(), agent.state().velocity_mps()) << "step " << i;
  }
  // After 180 degrees the agent flies the opposite direction, displaced by
  // the turn diameter along +y: radius = v / omega ~ 286.5 m.
  const double radius = 30.0 / deg_to_rad(6.0);
  EXPECT_NEAR(agent.state().bearing_rad, kPi, 0.01);
  EXPECT_NEAR(agent.state().position_m.y, 2.0 * radius, 6.0);
  EXPECT_NEAR(agent.state().position_m.x, 0.0, 6.0);
}

}  // namespace
}  // namespace cav::sim
