// Sharded-campaign driver tests against REAL cav_worker processes: the
// merged rates must be bit-identical to the in-process run, including
// through worker death (abrupt exit and wedged-worker deadlines) and for
// ACAS Xu read from a table image, and the campaign must never hang.
//
// The worker binary is resolved next to this test binary (both land in
// the build root); the death tests drive the worker's env knobs
// (CAV_WORKER_EXIT_AFTER_STRIPES / CAV_WORKER_HANG_AFTER_STRIPES), which
// fork+exec'd children inherit from us, and a shell-script stand-in plays
// a worker that speaks another protocol version.
#include "dist/campaign_driver.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "acasx/offline_solver.h"
#include "core/monte_carlo.h"
#include "core/validation_campaign.h"
#include "dist/spec_codec.h"
#include "dist/wire.h"

namespace cav::dist {
namespace {

/// Scoped env var: set on construction, unset on destruction (the knobs
/// must not leak into later tests' worker fleets).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

CampaignSpec small_spec(std::size_t encounters = 48) {
  CampaignSpec spec;
  spec.config.encounters = encounters;
  spec.config.seed = 23;
  spec.system_name = "tcas-sharded";
  spec.own_cas = CasSpec::tcas_like();
  spec.intruder_cas = CasSpec::tcas_like();
  return spec;
}

core::SystemRates in_process_rates(const CampaignSpec& spec) {
  return materialize_campaign(spec).run().rates;
}

void expect_rates_identical(const core::SystemRates& a, const core::SystemRates& b) {
  EXPECT_EQ(a.encounters, b.encounters);
  EXPECT_EQ(a.nmacs, b.nmacs);
  EXPECT_EQ(a.alerts, b.alerts);
  EXPECT_EQ(a.mean_min_separation_m, b.mean_min_separation_m) << "must match bit for bit";
}

TEST(DistCampaignTest, TwoWorkersMatchSingleProcessBitIdentically) {
  const CampaignSpec spec = small_spec();
  const core::SystemRates expected = in_process_rates(spec);

  CampaignDriverOptions options;
  options.num_workers = 2;
  std::size_t results_seen = 0;
  options.on_result = [&results_seen](std::size_t done, std::size_t) { results_seen = done; };

  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_FALSE(sharded.degraded) << "healthy fleet must not degrade";
  EXPECT_EQ(sharded.requeues, 0u);
  EXPECT_EQ(sharded.work_units, results_seen);
  EXPECT_EQ(sharded.work_units, materialize_campaign(spec).num_cells()) << "one stripe per cell";
}

/// How many lines of /proc/self/maps map `path`.
std::size_t mappings_of(const std::string& path) {
  const std::string canonical = std::filesystem::canonical(path).string();
  std::ifstream maps("/proc/self/maps");
  std::size_t n = 0;
  for (std::string line; std::getline(maps, line);) {
    const std::size_t at = line.find('/');
    n += at != std::string::npos && line.compare(at, std::string::npos, canonical) == 0 ? 1 : 0;
  }
  return n;
}

TEST(DistCampaignTest, AcasXuImageCampaignMatchesInProcess) {
  // The path a production campaign takes: ACAS Xu on both sides, read
  // from one f32 image that every worker maps.
  const std::string image = ::testing::TempDir() + "dist_campaign_acas_" +
                            std::to_string(::getpid()) + ".img";
  acasx::solve_logic_table(acasx::AcasXuConfig::coarse()).save(image);
  CampaignSpec spec = small_spec(64);
  spec.system_name = "acas-xu-image";
  spec.own_cas = CasSpec::acas_xu(image);
  spec.intruder_cas = CasSpec::acas_xu(image);

  core::SystemRates expected;
  std::size_t cells = 0;
  {
    const core::ValidationCampaign campaign = materialize_campaign(spec);
    EXPECT_EQ(mappings_of(image), 1u) << "own-ship and intruder must share one mapping";
    expected = campaign.run().rates;
    cells = campaign.num_cells();
  }
  EXPECT_EQ(mappings_of(image), 0u) << "the mapping lives as long as the campaign";

  CampaignDriverOptions options;
  options.num_workers = 2;
  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_GT(expected.alerts, 0u) << "the table must actually be consulted";
  EXPECT_FALSE(sharded.degraded);
  EXPECT_EQ(sharded.work_units, cells);
  std::remove(image.c_str());
}

TEST(DistCampaignTest, SingleWorkerOptionRunsInProcess) {
  const CampaignSpec spec = small_spec(24);
  CampaignDriverOptions options;
  options.num_workers = 1;
  const core::CampaignResult result = run_sharded_campaign(spec, options);
  expect_rates_identical(result.rates, in_process_rates(spec));
  EXPECT_FALSE(result.degraded);
}

TEST(DistCampaignTest, AbruptWorkerDeathRequeuesAndStaysBitIdentical) {
  // Every worker dies (as abruptly as SIGKILL: _exit without flushing)
  // after serving one stripe.  Respawns burn down, then the driver drains
  // in-process — the rates must come out identical anyway.
  const ScopedEnv knob("CAV_WORKER_EXIT_AFTER_STRIPES", "1");
  const CampaignSpec spec = small_spec();
  const core::SystemRates expected = in_process_rates(spec);

  CampaignDriverOptions options;
  options.num_workers = 2;
  options.max_respawns = 2;

  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_TRUE(sharded.degraded);
  EXPECT_GT(sharded.requeues, 0u);
  EXPECT_FALSE(sharded.notes.empty());
}

TEST(DistCampaignTest, ExternallyKilledWorkerIsRecovered) {
  // SIGKILL the first worker the moment it spawns: its setup/stripe is
  // lost mid-flight and must be requeued without perturbing the rates.
  const CampaignSpec spec = small_spec();
  const core::SystemRates expected = in_process_rates(spec);

  CampaignDriverOptions options;
  options.num_workers = 2;
  bool killed_one = false;
  options.on_spawn = [&killed_one](pid_t pid) {
    if (!killed_one) {
      killed_one = true;
      ::kill(pid, SIGKILL);
    }
  };

  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_TRUE(sharded.degraded);
}

TEST(DistCampaignTest, WedgedWorkerHitsDeadlineAndCampaignCompletes) {
  // Workers serve one stripe then stop answering.  Without the deadline
  // the campaign would hang forever; with it, wedged workers are killed,
  // their stripes requeued, and the campaign completes bit-identically.
  const ScopedEnv knob("CAV_WORKER_HANG_AFTER_STRIPES", "1");
  const CampaignSpec spec = small_spec(32);
  const core::SystemRates expected = in_process_rates(spec);

  CampaignDriverOptions options;
  options.num_workers = 2;
  options.stripe_deadline_s = 0.5;
  options.max_respawns = 1;

  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, expected);
  EXPECT_TRUE(sharded.degraded);
  EXPECT_GT(sharded.requeues, 0u);
}

TEST(DistCampaignTest, UnspawnableWorkerBinaryFallsBackInProcess) {
  // A bad worker path must degrade to the in-process path, not throw and
  // not hang.
  const CampaignSpec spec = small_spec(16);
  CampaignDriverOptions options;
  options.num_workers = 2;
  options.worker_path = "/nonexistent/cav_worker";
  const core::CampaignResult result = run_sharded_campaign(spec, options);
  expect_rates_identical(result.rates, in_process_rates(spec));
  EXPECT_TRUE(result.degraded);
}

TEST(DistCampaignTest, StaleProtocolWorkerIsRefusedAtHello) {
  // A worker built from other sources says hello with another protocol
  // version and would then mis-decode the spec.  The driver must refuse it
  // at hello, requeue its work, and still finish bit-identically.
  const std::string hello_path = ::testing::TempDir() + "stale_worker_hello.bin";
  {
    const int fd = ::open(hello_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    ASSERT_GE(fd, 0);
    ByteWriter hello;
    hello.u32(kProtocolVersion - 1);
    hello.u64(0);
    write_frame(fd, MsgType::kHello, hello.bytes());
    ::close(fd);
  }
  // Workers get their pipe fds as argv: $1 to read, $2 to write.
  const std::string worker_path = ::testing::TempDir() + "stale_cav_worker.sh";
  {
    std::ofstream script(worker_path);
    script << "#!/bin/sh\ncat '" << hello_path << "' > /proc/self/fd/$2\n"
           << "exec cat /proc/self/fd/$1 > /dev/null\n";
  }
  ASSERT_EQ(::chmod(worker_path.c_str(), 0755), 0);

  const CampaignSpec spec = small_spec(16);
  CampaignDriverOptions options;
  options.num_workers = 2;
  options.max_respawns = 1;
  options.stripe_deadline_s = 2.0;  // a driver that accepted the hello would wedge here
  options.worker_path = worker_path;
  const core::CampaignResult result = run_sharded_campaign(spec, options);
  expect_rates_identical(result.rates, in_process_rates(spec));
  EXPECT_TRUE(result.degraded);
  const bool refused = std::any_of(result.notes.begin(), result.notes.end(), [](const auto& n) {
    return n.find("protocol version mismatch") != std::string::npos;
  });
  EXPECT_TRUE(refused);
  std::remove(worker_path.c_str());
  std::remove(hello_path.c_str());
}

TEST(DistCampaignTest, MixedCasSpecsAcrossTheWire) {
  // SVO own-ship vs unequipped intruders: exercises a second CasSpec kind
  // end-to-end through worker materialization.
  CampaignSpec spec = small_spec(32);
  spec.system_name = "svo-vs-unequipped";
  spec.own_cas = CasSpec::svo();
  spec.intruder_cas = CasSpec::unequipped();

  CampaignDriverOptions options;
  options.num_workers = 2;
  const core::CampaignResult sharded = run_sharded_campaign(spec, options);
  expect_rates_identical(sharded.rates, in_process_rates(spec));
}

}  // namespace
}  // namespace cav::dist
