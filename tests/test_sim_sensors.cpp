#include "sim/sensors.h"

#include <gtest/gtest.h>

#include "sim/faults.h"
#include "util/stats.h"

namespace cav::sim {
namespace {

// A level aircraft's broadcast: 30 m/s ground speed on bearing 0, climbing
// at 1 m/s.
const Vec3 kPosition{100.0, 200.0, 1000.0};
const Vec3 kVelocity{30.0, 0.0, 1.0};

TEST(AdsbSensor, PerfectConfigIsExact) {
  const AdsbSensor sensor(AdsbConfig::perfect());
  RngStream rng(1);
  const auto track = sensor.observe(kPosition, kVelocity, rng);
  ASSERT_TRUE(track.has_value());
  EXPECT_EQ(track->position_m, (Vec3{100.0, 200.0, 1000.0}));
  EXPECT_EQ(track->velocity_mps, (Vec3{30.0, 0.0, 1.0}));
}

TEST(AdsbSensor, NoiseIsUnbiasedWithConfiguredSpread) {
  AdsbConfig config;
  config.horizontal_pos_sigma_m = 15.0;
  config.vertical_pos_sigma_m = 7.5;
  config.horizontal_vel_sigma_mps = 1.0;
  config.vertical_vel_sigma_mps = 0.5;
  const AdsbSensor sensor(config);
  RngStream rng(2);

  RunningStats x;
  RunningStats z;
  RunningStats vz;
  for (int i = 0; i < 20000; ++i) {
    const auto track = sensor.observe(kPosition, kVelocity, rng);
    ASSERT_TRUE(track.has_value());
    x.add(track->position_m.x);
    z.add(track->position_m.z);
    vz.add(track->velocity_mps.z);
  }
  EXPECT_NEAR(x.mean(), 100.0, 0.5);
  EXPECT_NEAR(x.stddev(), 15.0, 0.5);
  EXPECT_NEAR(z.mean(), 1000.0, 0.25);
  EXPECT_NEAR(z.stddev(), 7.5, 0.25);
  EXPECT_NEAR(vz.mean(), 1.0, 0.02);
  EXPECT_NEAR(vz.stddev(), 0.5, 0.02);
}

TEST(AdsbSensor, DropoutFrequencyMatchesConfig) {
  AdsbConfig config;
  config.dropout_prob = 0.25;
  const AdsbSensor sensor(config);
  RngStream rng(3);
  int lost = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (!sensor.observe(kPosition, kVelocity, rng).has_value()) ++lost;
  }
  EXPECT_NEAR(lost / static_cast<double>(n), 0.25, 0.02);
}

TEST(AdsbSensor, ZeroDropoutNeverLoses) {
  const AdsbSensor sensor(AdsbConfig{});
  RngStream rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(sensor.observe(kPosition, kVelocity, rng).has_value());
  }
}

TEST(AdsbDegraded, BurstDropoutRateMatchesTheory) {
  // With burst start probability p and continuation probability c, the
  // receive path is a renewal process: each received cycle starts a burst
  // with probability p, and a burst costs 1/(1-c) lost cycles on average.
  // Long-run loss fraction = E[lost] / (E[lost] + E[received run]) with
  // E[received run] = 1/p, i.e. loss = L / (L + 1/p) for L = 1/(1-c).
  const AdsbSensor sensor(AdsbConfig::perfect());
  FaultProfile fault;
  fault.adsb_dropout_burst_prob = 0.1;
  fault.adsb_burst_continue_prob = 0.5;
  RngStream noise(5);
  RngStream fault_rng(6);
  int burst_left = 0;
  int lost = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (!observe_degraded(sensor, kPosition, kVelocity, fault, noise, fault_rng, &burst_left)
             .has_value()) {
      ++lost;
    }
  }
  const double mean_burst = 1.0 / (1.0 - fault.adsb_burst_continue_prob);
  const double expected = mean_burst / (mean_burst + 1.0 / fault.adsb_dropout_burst_prob);
  EXPECT_NEAR(lost / static_cast<double>(n), expected, 0.02);
}

TEST(AdsbDegraded, BiasShiftsMeanWithoutChangingSigma) {
  AdsbConfig config;
  config.horizontal_pos_sigma_m = 15.0;
  const AdsbSensor sensor(config);
  FaultProfile fault;
  fault.adsb_position_bias_m = {40.0, -25.0, 10.0};
  fault.adsb_velocity_bias_mps = {0.0, 0.0, 2.0};
  RngStream noise(7);
  RngStream fault_rng(8);
  int burst_left = 0;

  RunningStats x;
  RunningStats y;
  RunningStats vz;
  for (int i = 0; i < 20000; ++i) {
    const auto track =
        observe_degraded(sensor, kPosition, kVelocity, fault, noise, fault_rng, &burst_left);
    ASSERT_TRUE(track.has_value());
    x.add(track->position_m.x);
    y.add(track->position_m.y);
    vz.add(track->velocity_mps.z);
  }
  EXPECT_NEAR(x.mean(), 100.0 + 40.0, 0.5);
  EXPECT_NEAR(x.stddev(), 15.0, 0.5);
  EXPECT_NEAR(y.mean(), 200.0 - 25.0, 0.5);
  EXPECT_NEAR(vz.mean(), 1.0 + 2.0, 0.02);
}

TEST(AdsbDegraded, BiasOnlyProfileConsumesNoFaultDraws) {
  // Enabling bias alone must not touch the fault stream, so bias can be
  // added to an existing campaign without re-pairing any seed.
  const AdsbSensor sensor(AdsbConfig{});
  FaultProfile fault;
  fault.adsb_position_bias_m = {5.0, 0.0, 0.0};
  RngStream noise(9);
  RngStream fault_rng(10);
  RngStream fault_ref(10);
  int burst_left = 0;
  for (int i = 0; i < 100; ++i) {
    observe_degraded(sensor, kPosition, kVelocity, fault, noise, fault_rng, &burst_left);
  }
  EXPECT_EQ(fault_rng.next_u64(), fault_ref.next_u64());
}

TEST(AdsbDegraded, NoneProfileMatchesPlainSensorDrawForDraw) {
  // observe_degraded with a no-op profile is routed around in the engine,
  // but it must still agree with the plain sensor when called directly.
  AdsbConfig config;
  config.dropout_prob = 0.2;
  const AdsbSensor sensor(config);
  RngStream a(11);
  RngStream b(11);
  RngStream fault_rng(12);
  int burst_left = 0;
  for (int i = 0; i < 200; ++i) {
    const auto plain = sensor.observe(kPosition, kVelocity, a);
    const auto degraded = observe_degraded(sensor, kPosition, kVelocity, FaultProfile::none(),
                                           b, fault_rng, &burst_left);
    ASSERT_EQ(plain.has_value(), degraded.has_value());
    if (plain.has_value()) {
      EXPECT_EQ(plain->position_m, degraded->position_m);
      EXPECT_EQ(plain->velocity_mps, degraded->velocity_mps);
    }
  }
}

TEST(AdsbDegraded, BurstLengthIsCappedAndPositive) {
  RngStream rng(13);
  for (int i = 0; i < 1000; ++i) {
    const int len = draw_burst_length(rng, 0.999);
    EXPECT_GE(len, 1);
    EXPECT_LE(len, FaultProfile::kMaxBurstCycles);
  }
}

TEST(AdsbSensor, DeterministicPerStream) {
  const AdsbSensor sensor(AdsbConfig{});
  RngStream a(9);
  RngStream b(9);
  const auto ta = sensor.observe(kPosition, kVelocity, a);
  const auto tb = sensor.observe(kPosition, kVelocity, b);
  ASSERT_TRUE(ta.has_value() && tb.has_value());
  EXPECT_EQ(ta->position_m, tb->position_m);
  EXPECT_EQ(ta->velocity_mps, tb->velocity_mps);
}

}  // namespace
}  // namespace cav::sim
