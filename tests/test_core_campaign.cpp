// ValidationCampaign work-unit surface: stripe tiling, the N-shard merge
// bit-identity contract (the property sharded execution stands on) and the
// risk-ratio sentinel/Wilson API.
#include "core/validation_campaign.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "baselines/tcas_like.h"
#include "core/monte_carlo.h"
#include "encounter/encounter.h"

namespace cav::core {
namespace {

MonteCarloConfig small_config(std::size_t encounters = 90) {
  MonteCarloConfig config;
  config.encounters = encounters;
  config.seed = 17;
  return config;
}

void expect_rates_identical(const SystemRates& a, const SystemRates& b) {
  EXPECT_EQ(a.encounters, b.encounters);
  EXPECT_EQ(a.nmacs, b.nmacs);
  EXPECT_EQ(a.alerts, b.alerts);
  // Bit-identity, not tolerance: the canonical-cell accumulation fixes
  // the FP grouping, so the doubles must match exactly.
  EXPECT_EQ(a.mean_min_separation_m, b.mean_min_separation_m);
}

TEST(ValidationCampaignTest, RunIsASingleStripeCampaign) {
  const encounter::StatisticalEncounterModel model;
  const ValidationCampaign campaign(model, small_config(), "tcas",
                                    baselines::TcasLikeCas::factory(),
                                    baselines::TcasLikeCas::factory());
  const CampaignResult result = campaign.run();
  const auto stripes = campaign.make_stripes(1);
  ASSERT_EQ(stripes.size(), 1u);
  expect_rates_identical(campaign.merge({campaign.run_stripe(stripes[0])}), result.rates);
  EXPECT_EQ(result.work_units, 1u);
  EXPECT_FALSE(result.degraded);
}

TEST(ValidationCampaignTest, StripesTileTheEncounterRange) {
  const encounter::StatisticalEncounterModel model;
  const ValidationCampaign campaign(model, small_config(), "none", {}, {});
  for (const std::size_t shards : {1u, 2u, 3u, 7u, 64u, 1000u}) {
    const auto stripes = campaign.make_stripes(shards);
    ASSERT_FALSE(stripes.empty());
    EXPECT_LE(stripes.size(), shards);
    EXPECT_EQ(stripes.front().begin, 0u);
    EXPECT_EQ(stripes.back().end, campaign.config().encounters);
    for (std::size_t i = 0; i + 1 < stripes.size(); ++i) {
      EXPECT_EQ(stripes[i].end, stripes[i + 1].begin) << "gap or overlap at stripe " << i;
      EXPECT_GT(stripes[i].size(), 0u);
    }
    for (const auto& s : stripes) EXPECT_EQ(s.seed, campaign.config().seed);
  }
}

TEST(ValidationCampaignTest, ShardedMergeIsBitIdenticalForRaggedStripeCounts) {
  // 90 encounters -> 64 canonical cells, which 2, 3, and 7 shards cut
  // raggedly (cells per stripe differ).  Whatever the striping — and
  // whatever order the results arrive in — the merge must equal the
  // single-stripe run bit for bit.
  const encounter::StatisticalEncounterModel model;
  const auto config = small_config();
  const ValidationCampaign campaign(model, config, "tcas", baselines::TcasLikeCas::factory(),
                                    baselines::TcasLikeCas::factory());
  const SystemRates whole = campaign.run().rates;

  for (const std::size_t shards : {2u, 3u, 7u}) {
    const auto stripes = campaign.make_stripes(shards);
    std::vector<StripeResult> results;
    for (const auto& stripe : stripes) results.push_back(campaign.run_stripe(stripe));
    // Completion order must not matter: merge sorts by first_cell.
    std::reverse(results.begin(), results.end());
    expect_rates_identical(campaign.merge(results), whole);
  }
}

TEST(ValidationCampaignTest, ThreadPoolDoesNotPerturbStripeResults) {
  const encounter::StatisticalEncounterModel model;
  const ValidationCampaign campaign(model, small_config(60), "none", {}, {});
  const auto stripes = campaign.make_stripes(3);
  ThreadPool pool(3);
  for (const auto& stripe : stripes) {
    const StripeResult serial = campaign.run_stripe(stripe);
    const StripeResult pooled = campaign.run_stripe(stripe, &pool);
    ASSERT_EQ(serial.cells.size(), pooled.cells.size());
    EXPECT_EQ(serial.first_cell, pooled.first_cell);
    for (std::size_t c = 0; c < serial.cells.size(); ++c) {
      EXPECT_EQ(serial.cells[c].nmacs, pooled.cells[c].nmacs);
      EXPECT_EQ(serial.cells[c].alerts, pooled.cells[c].alerts);
      EXPECT_EQ(serial.cells[c].sep_sum, pooled.cells[c].sep_sum);
    }
  }
}

TEST(ValidationCampaignTest, StripeSeedOverridesCampaignSeed) {
  // A driver can re-seed work units without rebuilding the campaign: the
  // stripe's seed governs every draw.
  const encounter::StatisticalEncounterModel model;
  const ValidationCampaign campaign(model, small_config(40), "none", {}, {});
  auto stripes = campaign.make_stripes(1);
  ASSERT_EQ(stripes.size(), 1u);
  const StripeResult original = campaign.run_stripe(stripes[0]);
  stripes[0].seed = 4242;
  const StripeResult reseeded = campaign.run_stripe(stripes[0]);
  double sep_a = 0.0, sep_b = 0.0;
  for (const auto& c : original.cells) sep_a += c.sep_sum;
  for (const auto& c : reseeded.cells) sep_b += c.sep_sum;
  EXPECT_NE(sep_a, sep_b) << "different seed must sample different traffic";
}

TEST(RiskRatioTest, WilsonVariantOnDefinedBaseline) {
  SystemRates base;
  base.encounters = 1000;
  base.nmacs = 100;
  SystemRates sys;
  sys.encounters = 1000;
  sys.nmacs = 10;

  const double point = risk_ratio(sys, base);
  EXPECT_NEAR(point, 0.1, 1e-12);

  const RiskRatioEstimate est = risk_ratio_wilson(sys, base);
  EXPECT_TRUE(est.defined);
  EXPECT_EQ(est.ratio, point);
  EXPECT_GT(est.lo, 0.0);
  EXPECT_LT(est.lo, est.ratio);
  EXPECT_GT(est.hi, est.ratio);
  EXPECT_TRUE(std::isfinite(est.hi));
}

TEST(RiskRatioTest, ZeroNmacBaselineYieldsSentinelNotNan) {
  SystemRates base;
  base.encounters = 500;
  base.nmacs = 0;
  SystemRates sys;
  sys.encounters = 500;
  sys.nmacs = 5;

  const double point = risk_ratio(sys, base);
  EXPECT_FALSE(std::isnan(point)) << "the historical quiet-NaN must be gone";
  EXPECT_EQ(point, kRiskRatioUndefined);

  const RiskRatioEstimate est = risk_ratio_wilson(sys, base);
  EXPECT_FALSE(est.defined);
  EXPECT_EQ(est.ratio, kRiskRatioUndefined);
  // The honest interval: bounded below (baseline's Wilson hi is > 0 on
  // finite data), unbounded above.
  EXPECT_GT(est.lo, 0.0);
  EXPECT_TRUE(std::isinf(est.hi));
}

TEST(RiskRatioTest, ZeroSystemNmacsIsAHardZeroWhenDefined) {
  SystemRates base;
  base.encounters = 200;
  base.nmacs = 20;
  SystemRates sys;
  sys.encounters = 200;
  sys.nmacs = 0;
  EXPECT_EQ(risk_ratio(sys, base), 0.0);
  const RiskRatioEstimate est = risk_ratio_wilson(sys, base);
  EXPECT_TRUE(est.defined);
  EXPECT_EQ(est.ratio, 0.0);
  EXPECT_GE(est.lo, 0.0);
  EXPECT_GT(est.hi, 0.0) << "Wilson hi of 0/200 is positive — no false certainty";
}

}  // namespace
}  // namespace cav::core
