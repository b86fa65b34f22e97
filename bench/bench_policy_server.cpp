// E15 — The policy-serving engine (serving/policy_server.h): batched vs
// single-query throughput, per-batch p99 latency, quantized serving
// (f16/int8) policy-disagreement rates, and RSS-per-process when several
// processes mmap the same TableImage.
//
// The single-query BASELINE below reproduces the pre-serving
// implementation of LogicTable::action_costs verbatim — a heap-allocating
// grid scatter per query and action-outer / vertex-inner accumulation —
// because that is the path every caller paid before the serving layer
// existed.  The batched path is PolicyServer::query_batch over the mmap'd
// image: allocation-free, in input order, with the action loop contiguous
// and vectorizable, serially and sharded across the bench pool.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "acasx/joint_solver.h"
#include "acasx/online_logic.h"
#include "bench_common.h"
#include "serving/policy_server.h"

#ifdef __linux__
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#endif

namespace {

using namespace cav;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// The pre-serving implementation of LogicTable::action_costs, kept here
/// as the measured single-query baseline.
std::array<double, acasx::kNumAdvisories> seed_action_costs(const acasx::LogicTable& table,
                                                            const serving::TrackQuery& q) {
  const auto& config = table.config();
  const double tau_max = static_cast<double>(config.space.tau_max);
  const double tau = std::clamp(q.tau_s, 0.0, tau_max);
  const auto t_lo = static_cast<std::size_t>(tau);
  const std::size_t t_hi = std::min<std::size_t>(t_lo + 1, config.space.tau_max);
  const double t_frac = tau - static_cast<double>(t_lo);

  const auto vertices = table.grid().scatter({q.h_ft, q.dh_own_fps, q.dh_int_fps});

  std::array<double, acasx::kNumAdvisories> costs{};
  for (std::size_t ai = 0; ai < acasx::kNumAdvisories; ++ai) {
    const auto action = static_cast<acasx::Advisory>(ai);
    double lo = 0.0;
    double hi = 0.0;
    for (const auto& v : vertices) {
      lo += v.weight * static_cast<double>(table.at(t_lo, v.flat, q.ra, action));
      if (t_hi != t_lo) {
        hi += v.weight * static_cast<double>(table.at(t_hi, v.flat, q.ra, action));
      }
    }
    costs[ai] = (t_hi == t_lo) ? lo : lo * (1.0 - t_frac) + hi * t_frac;
  }
  return costs;
}

std::vector<serving::TrackQuery> random_pair_queries(const acasx::AcasXuConfig& config,
                                                     std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto span = [&](const UniformAxis& axis) {
    // 10% overshoot each side exercises the boundary clamp.
    const double pad = 0.1 * (axis.hi() - axis.lo());
    return axis.lo() - pad + u01(rng) * (axis.hi() - axis.lo() + 2.0 * pad);
  };
  std::vector<serving::TrackQuery> queries(n);
  for (auto& q : queries) {
    q.tau_s = u01(rng) * (static_cast<double>(config.space.tau_max) + 2.0);
    q.h_ft = span(config.space.h_ft);
    q.dh_own_fps = span(config.space.dh_own_fps);
    q.dh_int_fps = span(config.space.dh_int_fps);
    q.ra = static_cast<acasx::Advisory>(rng() % acasx::kNumAdvisories);
  }
  return queries;
}

std::vector<serving::JointTrackQuery> random_joint_queries(const acasx::JointConfig& config,
                                                           std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto span = [&](const UniformAxis& axis) {
    const double pad = 0.1 * (axis.hi() - axis.lo());
    return axis.lo() - pad + u01(rng) * (axis.hi() - axis.lo() + 2.0 * pad);
  };
  std::vector<serving::JointTrackQuery> queries(n);
  for (auto& q : queries) {
    q.tau1_s = u01(rng) * (static_cast<double>(config.space.tau_max) + 2.0);
    q.delta_s = u01(rng) * config.secondary.delta_step_s *
                static_cast<double>(config.secondary.num_delta_bins + 1);
    q.h1_ft = span(config.space.h_ft);
    q.dh_own_fps = span(config.space.dh_own_fps);
    q.dh_int1_fps = span(config.space.dh_int_fps);
    q.h2_ft = span(config.secondary.h2_ft);
    q.sense = static_cast<acasx::SecondarySense>(rng() % acasx::kNumSecondarySenses);
    q.ra = static_cast<acasx::Advisory>(rng() % acasx::kNumAdvisories);
  }
  return queries;
}

/// Run `queries` through `server` in fixed-size batches, returning
/// (total seconds, p99 per-batch seconds).
std::pair<double, double> timed_batches(const serving::PolicyServer& server,
                                        std::span<const serving::TrackQuery> queries,
                                        std::span<serving::AdvisoryCosts> out,
                                        std::size_t batch, ThreadPool* pool) {
  std::vector<double> batch_s;
  batch_s.reserve(queries.size() / batch + 1);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < queries.size(); i += batch) {
    const std::size_t n = std::min(batch, queries.size() - i);
    const auto t0 = std::chrono::steady_clock::now();
    server.query_batch(queries.subspan(i, n), out.subspan(i, n), pool);
    batch_s.push_back(seconds_since(t0));
  }
  const double total = seconds_since(start);
  std::sort(batch_s.begin(), batch_s.end());
  const double p99 = batch_s[std::min(batch_s.size() - 1,
                                      static_cast<std::size_t>(0.99 * batch_s.size()))];
  return {total, p99};
}

/// Fraction of queries whose selected advisory differs between two cost
/// sets (the metric that matters: argmin flips, not cost deltas).
double disagreement_rate(std::span<const serving::TrackQuery> queries,
                         std::span<const serving::AdvisoryCosts> reference,
                         std::span<const serving::AdvisoryCosts> quantized) {
  std::size_t differ = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto ref = acasx::select_advisory(reference[i].costs, acasx::Sense::kNone,
                                            queries[i].ra);
    const auto quant = acasx::select_advisory(quantized[i].costs, acasx::Sense::kNone,
                                              queries[i].ra);
    if (ref != quant) ++differ;
  }
  return static_cast<double>(differ) / static_cast<double>(queries.size());
}

double joint_disagreement_rate(std::span<const serving::JointTrackQuery> queries,
                               std::span<const serving::AdvisoryCosts> reference,
                               std::span<const serving::AdvisoryCosts> quantized) {
  std::size_t differ = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto ref = acasx::select_advisory(reference[i].costs, acasx::Sense::kNone,
                                            queries[i].ra);
    const auto quant = acasx::select_advisory(quantized[i].costs, acasx::Sense::kNone,
                                              queries[i].ra);
    if (ref != quant) ++differ;
  }
  return static_cast<double>(differ) / static_cast<double>(queries.size());
}

#ifdef __linux__
/// Sum an smaps field (kB) over the mappings whose pathname contains
/// `needle`.  Filtering to the image-file mappings keeps the measurement
/// honest under fork: a forked child inherits every COW page of the
/// parent bench (solved tables, query vectors), which would otherwise
/// swamp VmRSS; the file-backed table mappings are exactly the memory the
/// serving layer is accountable for.
double smaps_mapped_kb(const char* needle, const char* field) {
  std::ifstream in("/proc/self/smaps");
  std::string line;
  bool tracking = false;
  double sum_kb = 0.0;
  while (std::getline(in, line)) {
    // Mapping headers start with a hex address range ("5603f1-5603f9 ...");
    // field rows start with a name and a colon ("Rss:   4 kB").
    const bool header = !line.empty() &&
                        std::isxdigit(static_cast<unsigned char>(line[0])) &&
                        line.find('-') != std::string::npos &&
                        line.find('-') < line.find(' ');
    if (header) {
      tracking = line.find(needle) != std::string::npos;
    } else if (tracking && line.rfind(field, 0) == 0) {
      std::istringstream row(line.substr(std::strlen(field)));
      double kb = 0.0;
      row >> kb;
      sum_kb += kb;
    }
  }
  return sum_kb;
}
#endif

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bench::banner("E15: policy serving engine (batch throughput, quantized serving, mmap RSS)");

  const auto pair_table = bench::standard_table();
  const acasx::JointConfig joint_config =
      bench::smoke() ? acasx::JointConfig::coarse() : acasx::JointConfig::standard();
  const auto joint_table = std::make_shared<const acasx::JointLogicTable>(
      acasx::solve_joint_table(joint_config, &bench::pool()));

  const std::string dir = bench::output_dir();
  const struct {
    serving::Quantization quant;
    const char* tag;
  } kModes[] = {{serving::Quantization::kNone, "f32"},
                {serving::Quantization::kFloat16, "f16"},
                {serving::Quantization::kInt8, "int8"}};

  // --- Dump both tables at every precision -------------------------------
  std::printf("table dumps (pairwise %zu entries, joint %zu entries):\n",
              pair_table->num_entries(), joint_table->num_entries());
  double joint_bytes_f32 = 0.0;
  for (const auto& mode : kModes) {
    const std::string pair_path = dir + "/e15_pair_" + mode.tag + ".img";
    const std::string joint_path = dir + "/e15_joint_" + mode.tag + ".img";
    const auto t0 = std::chrono::steady_clock::now();
    pair_table->save(pair_path, mode.quant);
    joint_table->save(joint_path, mode.quant);
    const double dump_s = seconds_since(t0);

    // Every open verifies both images' checksums over every byte.
    const auto t1 = std::chrono::steady_clock::now();
    const auto server = serving::PolicyServer::open(pair_path, joint_path);
    const double open_s = seconds_since(t1);
    bench::record_metric(std::string("e15.") + mode.tag + ".dump_s", dump_s);
    bench::record_metric(std::string("e15.") + mode.tag + ".open_s", open_s);
    const double joint_mb = static_cast<double>(server.joint_payload_bytes()) / 1e6;
    if (mode.quant == serving::Quantization::kNone) {
      joint_bytes_f32 = static_cast<double>(server.joint_payload_bytes());
    } else {
      const double ratio = static_cast<double>(server.joint_payload_bytes()) / joint_bytes_f32;
      bench::record_metric(std::string("e15.joint.") + mode.tag + "_bytes_ratio", ratio);
    }
    std::printf("  %-4s dump %7.3f s   open %7.3f s   joint payload %8.2f MB\n", mode.tag, dump_s,
                open_s, joint_mb);
  }

  // --- Batched vs single-query throughput (pairwise, f32) ----------------
  const std::size_t kQueries = bench::smoke() ? 20'000 : 2'000'000;
  const std::size_t kBatch = bench::smoke() ? 4'096 : 65'536;
  const auto queries = random_pair_queries(pair_table->config(), kQueries, 2016);
  std::vector<serving::AdvisoryCosts> out(kQueries);

  const auto f32_server =
      serving::PolicyServer::open(dir + "/e15_pair_f32.img", dir + "/e15_joint_f32.img");

  // Baseline: the pre-serving single-query implementation.
  const auto single_start = std::chrono::steady_clock::now();
  double sink = 0.0;
  for (const auto& q : queries) sink += seed_action_costs(*pair_table, q)[0];
  const double single_s = seconds_since(single_start);

  // The current single-query API (batch-of-one over the serving kernel).
  const auto api_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kQueries; ++i) {
    const auto& q = queries[i];
    pair_table->action_costs(q.tau_s, q.h_ft, q.dh_own_fps, q.dh_int_fps, q.ra, out[i].costs);
  }
  const double api_s = seconds_since(api_start);

  const auto [serial_s, serial_p99] = timed_batches(f32_server, queries, out, kBatch, nullptr);
  const auto [pooled_s, pooled_p99] =
      timed_batches(f32_server, queries, out, kBatch, &bench::pool());

  const auto qps = [](std::size_t n, double s) { return static_cast<double>(n) / s; };
  std::printf("\npairwise throughput (%zu random queries, batch %zu):\n", kQueries, kBatch);
  std::printf("  single query, seed path:      %10.0f advisories/s\n",
              qps(kQueries, single_s));
  std::printf("  single query, current API:    %10.0f advisories/s\n", qps(kQueries, api_s));
  std::printf("  batched, serial:              %10.0f advisories/s  (p99 %6.3f ms)\n",
              qps(kQueries, serial_s), serial_p99 * 1e3);
  std::printf("  batched + pool(%zu):           %10.0f advisories/s  (p99 %6.3f ms)\n",
              bench::pool().thread_count(), qps(kQueries, pooled_s), pooled_p99 * 1e3);
  // Headline: the faster batched configuration (and its p99) vs the seed
  // single-query baseline.
  const bool pooled_wins = pooled_s < serial_s;
  const double best_batch_s = pooled_wins ? pooled_s : serial_s;
  const double best_batch_p99 = pooled_wins ? pooled_p99 : serial_p99;
  std::printf("  speedup batched vs baseline:  %10.2fx\n", single_s / best_batch_s);
  std::printf("  (checksum %g)\n", sink);

  bench::record_metric("e15.pair.single_seed_qps", qps(kQueries, single_s));
  bench::record_metric("e15.pair.single_api_qps", qps(kQueries, api_s));
  bench::record_metric("e15.pair.batch_serial_qps", qps(kQueries, serial_s));
  bench::record_metric("e15.pair.batch_pooled_qps", qps(kQueries, pooled_s));
  bench::record_metric("e15.pair.batch_qps", qps(kQueries, best_batch_s));
  bench::record_metric("e15.pair.batch_p99_s", best_batch_p99);
  bench::record_metric("e15.pair.speedup_batched", single_s / best_batch_s);

  // --- Quantized serving: policy disagreement vs the f32 table -----------
  const std::size_t kSample = bench::smoke() ? 5'000 : 200'000;
  const auto sample = random_pair_queries(pair_table->config(), kSample, 99);
  std::vector<serving::AdvisoryCosts> reference(kSample);
  std::vector<serving::AdvisoryCosts> quantized(kSample);
  f32_server.query_batch(sample, reference);

  const auto joint_sample = random_joint_queries(joint_config, kSample, 7);
  std::vector<serving::AdvisoryCosts> joint_reference(kSample);
  std::vector<serving::AdvisoryCosts> joint_quantized(kSample);
  f32_server.query_batch(joint_sample, joint_reference);

  std::printf("\nquantized serving, policy disagreement vs f32 (%zu samples):\n", kSample);
  for (const auto& mode : kModes) {
    if (mode.quant == serving::Quantization::kNone) continue;
    const auto server = serving::PolicyServer::open(dir + "/e15_pair_" + mode.tag + ".img",
                                                    dir + "/e15_joint_" + mode.tag + ".img");
    server.query_batch(sample, quantized);
    server.query_batch(joint_sample, joint_quantized);
    const double pair_rate = disagreement_rate(sample, reference, quantized);
    const double joint_rate =
        joint_disagreement_rate(joint_sample, joint_reference, joint_quantized);
    std::printf("  %-4s pairwise %7.4f %%   joint %7.4f %%\n", mode.tag, 100.0 * pair_rate,
                100.0 * joint_rate);
    bench::record_metric(std::string("e15.pair.") + mode.tag + "_disagree_rate", pair_rate);
    bench::record_metric(std::string("e15.joint.") + mode.tag + "_disagree_rate", joint_rate);
  }

#ifdef __linux__
  // --- RSS per process under multi-process mmap --------------------------
  // Fork children that each open the same f32 images, touch every payload
  // page with a query sweep, and report the RSS and PSS of the image-file
  // mappings alone.  With MAP_SHARED file pages, RSS counts the shared
  // pages in every process while PSS divides them by the number of
  // sharers — PSS falling toward RSS/k is the measured proof that k
  // processes pay one physical copy.
  const int kProcs = bench::smoke() ? 2 : 4;
  int pipes[2];
  if (pipe(pipes) == 0) {
    for (int p = 0; p < kProcs; ++p) {
      const pid_t pid = fork();
      if (pid == 0) {
        const auto server = serving::PolicyServer::open(dir + "/e15_pair_f32.img",
                                                        dir + "/e15_joint_f32.img");
        const auto touch = random_pair_queries(server.pairwise_config(), 1'000, 11);
        std::vector<serving::AdvisoryCosts> touched(touch.size());
        server.query_batch(touch, touched);
        // Touch the full payloads so every page is resident.
        double total = 0.0;
        const float* pv = server.pairwise_table()->values();
        for (std::size_t i = 0; i < server.pairwise_table()->num_entries(); i += 1024) {
          total += pv[i];
        }
        const float* jv = server.joint_table()->values();
        for (std::size_t i = 0; i < server.joint_table()->num_entries(); i += 1024) {
          total += jv[i];
        }
        const double rss_kb = smaps_mapped_kb(".img", "Rss:");
        const double pss_kb = smaps_mapped_kb(".img", "Pss:");
        double payload[3] = {rss_kb, pss_kb, total};
        [[maybe_unused]] const ssize_t n = write(pipes[1], payload, sizeof payload);
        _exit(0);
      }
    }
    double rss_sum_kb = 0.0;
    double pss_sum_kb = 0.0;
    for (int p = 0; p < kProcs; ++p) {
      double payload[3] = {0.0, 0.0, 0.0};
      if (read(pipes[0], payload, sizeof payload) == sizeof payload) {
        rss_sum_kb += payload[0];
        pss_sum_kb += payload[1];
      }
      wait(nullptr);
    }
    close(pipes[0]);
    close(pipes[1]);
    const double tables_mb =
        static_cast<double>(f32_server.pairwise_payload_bytes() +
                            f32_server.joint_payload_bytes()) / 1e6;
    std::printf("\nmulti-process mmap (%d processes, %0.1f MB of tables):\n", kProcs,
                tables_mb);
    std::printf("  mean table RSS %8.1f MB/process   mean table PSS %8.1f MB/process\n",
                rss_sum_kb / kProcs / 1e3, pss_sum_kb / kProcs / 1e3);
    bench::record_metric("e15.mmap.rss_mb_per_proc", rss_sum_kb / kProcs / 1e3);
    bench::record_metric("e15.mmap.pss_mb_per_proc", pss_sum_kb / kProcs / 1e3);
  }
#endif
  return 0;
}
