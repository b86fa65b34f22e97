#include "baselines/tcas_like.h"

#include <gtest/gtest.h>

#include "util/units.h"

namespace cav::baselines {
namespace {

acasx::AircraftTrack track(double x, double y, double z, double vx, double vy, double vz) {
  return {{x, y, z}, {vx, vy, vz}};
}

TEST(TcasLike, SilentOnFarTraffic) {
  TcasLikeCas tcas;
  const auto d = tcas.decide(track(0, 0, 1000, 40, 0, 0), track(20000, 0, 1000, -40, 0, 0),
                             acasx::Sense::kNone);
  EXPECT_FALSE(d.maneuver);
  EXPECT_EQ(d.label, "COC");
}

TEST(TcasLike, SilentOnDivergingTraffic) {
  TcasLikeCas tcas;
  const auto d = tcas.decide(track(0, 0, 1000, 40, 0, 0), track(500, 0, 1000, 40, 0, 0),
                             acasx::Sense::kNone);
  EXPECT_FALSE(d.maneuver);
}

TEST(TcasLike, SilentWhenVerticallyClear) {
  TcasLikeCas tcas;
  // Converging but 800 ft apart vertically with no vertical closure.
  const auto d = tcas.decide(track(0, 0, 1000, 40, 0, 0),
                             track(1200, 0, 1000 + units::ft_to_m(800.0), -40, 0, 0),
                             acasx::Sense::kNone);
  EXPECT_FALSE(d.maneuver);
}

TEST(TcasLike, AlertsInsideRaTau) {
  TcasLikeCas tcas;
  // Co-altitude head-on, tau ~ 13 s < 25 s threshold.
  const auto d = tcas.decide(track(0, 0, 1000, 40, 0, 0), track(1200, 0, 1000, -40, 0, 0),
                             acasx::Sense::kNone);
  EXPECT_TRUE(d.maneuver);
  EXPECT_NE(d.sense, acasx::Sense::kNone);
}

TEST(TcasLike, SenseSelectionPrefersLargerSeparation) {
  TcasLikeCas tcas;
  // Intruder slightly below and climbing: climbing away is the better sense.
  const auto d = tcas.decide(track(0, 0, 1000, 40, 0, 0),
                             track(1200, 0, 1000 - units::ft_to_m(80.0), -40, 0, 1.5),
                             acasx::Sense::kNone);
  ASSERT_TRUE(d.maneuver);
  EXPECT_EQ(d.sense, acasx::Sense::kClimb);
}

TEST(TcasLike, CoordinationOverridesPreferredSense) {
  TcasLikeCas free_tcas;
  const auto own = track(0, 0, 1000, 40, 0, 0);
  const auto intr = track(1200, 0, 1000 - units::ft_to_m(80.0), -40, 0, 1.5);
  const auto preferred = free_tcas.decide(own, intr, acasx::Sense::kNone);
  ASSERT_TRUE(preferred.maneuver);

  TcasLikeCas constrained;
  const auto forced = constrained.decide(own, intr, preferred.sense);
  ASSERT_TRUE(forced.maneuver);
  EXPECT_NE(forced.sense, preferred.sense);
}

TEST(TcasLike, KeepsSenseOnceChosen) {
  TcasLikeCas tcas;
  const auto own = track(0, 0, 1000, 40, 0, 0);
  acasx::Sense first = acasx::Sense::kNone;
  for (double x = 1200.0; x > 200.0; x -= 80.0) {
    const auto d = tcas.decide(own, track(x, 0, 1001, -40, 0, 0), acasx::Sense::kNone);
    if (!d.maneuver) continue;
    if (first == acasx::Sense::kNone) {
      first = d.sense;
    } else {
      EXPECT_EQ(d.sense, first) << "TCAS sense must not flip mid-encounter";
    }
  }
  EXPECT_NE(first, acasx::Sense::kNone);
}

TEST(TcasLike, StrengthensWhenSeparationInsufficient) {
  TcasConfig config;
  TcasLikeCas tcas(config);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  bool saw_strengthened = false;
  // Close fast from co-altitude: late in the encounter ALIM cannot be met
  // at 1500 fpm, so the advisory strengthens to 2500.
  for (double x = 1900.0; x > 150.0; x -= 80.0) {
    const auto d = tcas.decide(own, track(x, 0, 1000, -40, 0, 0), acasx::Sense::kNone);
    if (d.label.find("2500") != std::string::npos) saw_strengthened = true;
  }
  EXPECT_TRUE(saw_strengthened);
}

TEST(TcasLike, ClearsAfterHysteresis) {
  TcasConfig config;
  config.clear_hysteresis_s = 2.0;
  TcasLikeCas tcas(config);
  const auto own = track(0, 0, 1000, 40, 0, 0);
  ASSERT_TRUE(tcas.decide(own, track(1000, 0, 1000, -40, 0, 0), acasx::Sense::kNone).maneuver);
  // Threat gone: after the hysteresis window the RA must drop.
  int cycles_until_clear = 0;
  for (int i = 0; i < 10; ++i) {
    const auto d = tcas.decide(own, track(-5000, 0, 1000, -40, 0, 0), acasx::Sense::kNone);
    ++cycles_until_clear;
    if (!d.maneuver) break;
  }
  EXPECT_LE(cycles_until_clear, 4);
}

TEST(TcasLike, ResetRestoresInitialState) {
  TcasLikeCas tcas;
  const auto own = track(0, 0, 1000, 40, 0, 0);
  ASSERT_TRUE(tcas.decide(own, track(1000, 0, 1000, -40, 0, 0), acasx::Sense::kNone).maneuver);
  tcas.reset();
  const auto d = tcas.decide(own, track(20000, 0, 1000, -40, 0, 0), acasx::Sense::kNone);
  EXPECT_FALSE(d.maneuver);
}

TEST(TcasLike, FactoryProducesIndependentInstances) {
  const auto factory = TcasLikeCas::factory();
  auto a = factory();
  auto b = factory();
  const auto own = track(0, 0, 1000, 40, 0, 0);
  a->decide(own, track(1000, 0, 1000, -40, 0, 0), acasx::Sense::kNone);
  // b has no RA state from a's encounter.
  const auto d = b->decide(own, track(20000, 0, 1000, -40, 0, 0), acasx::Sense::kNone);
  EXPECT_FALSE(d.maneuver);
}

}  // namespace
}  // namespace cav::baselines
