// Workload `serve`: one thread running a closed loop of
// PolicyServer::query_batch calls (default BatchOptions: input order, no
// pool) over an mmap'd f32 image.  Each batch is 4096 queries — one city
// decision cycle.  One op is one query.  This is the table read path
// alone, so kernel changes show here while `city` and `campaign` dilute
// them.
//
// The image is the COARSE pairwise table (2.6 MB), not the standard one
// (38 MB): on the shared 4-core host the standard image's reads miss to a
// last-level cache other tenants thrash, and its throughput swung 2x from
// one second to the next (quartile spread 20% over runs); the coarse
// table runs the same kernel at a steady rate (README "Measured spreads").
#include <array>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "bench.h"
#include "serving/policy_server.h"

namespace perfbench {

namespace {

using namespace cav;

constexpr std::size_t kBatch = 4096;
/// Distinct batches cycled through by the closed loop.
constexpr std::size_t kPoolBatches = 16;
/// Batches per measured unit (~0.1 s); ops_per_s is the median over units.
constexpr std::size_t kUnitBatches = 256;
constexpr std::size_t kProbeBatches = 256;
/// Every kSampleStride-th query of the pool is re-evaluated alone.
constexpr std::size_t kSampleStride = 61;

}  // namespace

std::vector<serving::TrackQuery> make_queries(const acasx::AcasXuConfig& config, std::size_t n,
                                              std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  const auto span = [&](const UniformAxis& axis) {
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

void run_serve(Context& ctx, const Plan& plan) {
  Tracer& tracer = ctx.tracer;
  const std::uint64_t first_request = tracer.last_request() + 1;
  const acasx::AcasXuConfig config = acasx::AcasXuConfig::coarse();
  const std::vector<serving::TrackQuery> queries =
      make_queries(config, kPoolBatches * kBatch, ctx.options.seed);
  std::vector<serving::AdvisoryCosts> out(queries.size());
  const std::span<const serving::TrackQuery> all_queries(queries);
  const std::span<serving::AdvisoryCosts> all_out(out);

  // Set-up: solve + dump + open + warm-up, repeated; the median is
  // reported and the last server is the one timed.
  std::vector<double> setup_s;
  std::unique_ptr<serving::PolicyServer> server;
  for (int rep = 0; rep < plan.setup_reps; ++rep) {
    server.reset();
    const std::uint64_t request = tracer.next_request();
    ScopedSpan root(tracer, "bench.setup", request);
    const double t0 = wall_s();
    const std::string image =
        dump_image(ctx, *solve_table(ctx, config, request), "coarse_f32.cavt", request);
    {
      ScopedSpan span(tracer, "serving.open", request);
      server = std::make_unique<serving::PolicyServer>(serving::PolicyServer::open(image));
    }
    {
      // One pass over the query pool maps and caches every table page the
      // timed loop reads.
      ScopedSpan span(tracer, "bench.warm_up", request);
      server->query_batch(all_queries, all_out);
    }
    setup_s.push_back(wall_s() - t0);
  }

  // Timed window: batches back to back, cycling through the pool; a unit
  // is kUnitBatches batches.
  const std::size_t batches_max = plan.primary ? 0 : kProbeBatches;
  std::vector<double> unit_ops_per_s, unit_cpu_us;
  std::uint64_t ops = 0;
  const double window_start = wall_s();
  double unit_start = window_start;
  double unit_cpu0 = process_cpu_s();
  for (std::size_t b = 0;; ++b) {
    const std::size_t slot = (b % kPoolBatches) * kBatch;
    {
      ScopedSpan span(tracer, "serving.query_batch", tracer.next_request());
      server->query_batch(all_queries.subspan(slot, kBatch), all_out.subspan(slot, kBatch));
    }
    ops += kBatch;
    const double now = wall_s();
    if ((b + 1) % kUnitBatches == 0) {
      const double cpu = process_cpu_s();
      const auto unit_ops = static_cast<double>(kUnitBatches * kBatch);
      unit_ops_per_s.push_back(unit_ops / (now - unit_start));
      unit_cpu_us.push_back(1e6 * (cpu - unit_cpu0) / unit_ops);
      unit_start = now;
      unit_cpu0 = cpu;
    }
    if (batches_max ? b + 1 >= batches_max
                    : now - window_start >= plan.window_s && (b + 1) % kUnitBatches == 0) {
      break;
    }
  }

  // Batch-of-one re-evaluation of a fixed sample must match bit for bit.
  std::uint64_t mismatches = 0;
  std::array<double, acasx::kNumAdvisories> single{};
  for (std::size_t i = 0; i < queries.size(); i += kSampleStride) {
    server->action_costs(queries[i], single);
    if (std::memcmp(single.data(), out[i].costs.data(), sizeof(single)) != 0) ++mismatches;
  }
  ctx.count(ops, mismatches, "serve: batched costs differ from batch-of-one");

  if (plan.primary) {
    record_end_to_end(ctx, setup_s, peak_rss_mb(), unit_ops_per_s, unit_cpu_us);
    record_setup_layers(ctx, first_request);
  }

  if (!tracer.enabled()) return;
  const auto batch_s = tracer.durations("serving.query_batch", first_request);
  put_layer(ctx, plan, "serving.open_s",
            median(tracer.durations("serving.open", first_request)), "s");
  put_layer(ctx, plan, "serving.batch_p50_ms", 1e3 * percentile(batch_s, 0.50), "ms");
  put_layer(ctx, plan, "serving.batch_p99_ms", 1e3 * percentile(batch_s, 0.99), "ms");
}

}  // namespace perfbench
