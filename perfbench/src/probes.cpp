// Micro-probes of single layer entry points, run only in traced mode and
// after the timed window: ThreadPool fork-join latency, RngStream derive
// and Gaussian draws, batch-of-one table lookups (the CAS path), and
// encounter sampling.  Each is timed in several batches and reported as
// the median batch.
#include <vector>

#include "acasx/config.h"
#include "bench.h"
#include "encounter/encounter.h"
#include "encounter/statistical_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

using namespace cav;

constexpr int kBatches = 5;
constexpr int kForkJoins = 2000;
constexpr int kDerives = 20000;
constexpr int kGaussians = 1000000;
constexpr std::size_t kSingleQueries = 65536;
constexpr int kSamples = 20000;

/// Keeps probe results observable so the compiler cannot drop the work.
volatile double g_sink = 0.0;

/// Median over kBatches of (batch seconds / items), scaled by `unit`.
template <typename Fn>
double per_item(Tracer& tracer, const char* span_name, int items, double unit, Fn&& fn) {
  std::vector<double> per;
  for (int b = 0; b < kBatches; ++b) {
    ScopedSpan span(tracer, span_name, tracer.next_request());
    const double t0 = wall_s();
    fn(b);
    per.push_back((wall_s() - t0) / items * unit);
  }
  return median(per);
}

}  // namespace

void run_micro_probes(Context& ctx) {
  Tracer& tracer = ctx.tracer;
  Metrics& m = ctx.layers;
  const std::uint64_t seed = ctx.options.seed;

  {
    // Empty fork-joins at the city workload's pool size.
    ThreadPool pool(nproc());
    std::vector<double> us;
    us.reserve(kForkJoins);
    for (int i = 0; i < kForkJoins; ++i) {
      ScopedSpan span(tracer, "util.parallel_for_ranges", tracer.next_request());
      const double t0 = wall_s();
      pool.parallel_for_ranges(pool.thread_count(), [](std::size_t, std::size_t) {});
      us.push_back(1e6 * (wall_s() - t0));
    }
    m.set("util.fork_join_p50_us", percentile(us, 0.50), "us");
    m.set("util.fork_join_p99_us", percentile(us, 0.99), "us");
  }

  m.set("util.rng_derive_us",
        per_item(tracer, "util.rng_derive", kDerives, 1e6,
                 [&](int b) {
                   double acc = 0.0;
                   for (int i = 0; i < kDerives; ++i) {
                     RngStream rng = RngStream::derive(seed, "perfbench", b, i);
                     acc += static_cast<double>(rng.next_u64() & 1u);
                   }
                   g_sink = acc;
                 }),
        "us");

  m.set("util.rng_gaussian_ns",
        per_item(tracer, "util.rng_gaussian", kGaussians, 1e9,
                 [&](int b) {
                   RngStream rng = RngStream::derive(seed, "perfbench-gauss", b);
                   double acc = 0.0;
                   for (int i = 0; i < kGaussians; ++i) acc += rng.gaussian(0.0, 1.0);
                   g_sink = acc;
                 }),
        "ns");

  {
    // Batch-of-one LogicTable::action_costs over the serve query
    // distribution on the standard table: the path every CAS decision in
    // `city` and `campaign` takes.
    if (!ctx.table) {
      ctx.table = solve_table(ctx, acasx::AcasXuConfig::standard(), tracer.next_request());
    }
    const auto queries = make_queries(ctx.table->config(), kSingleQueries, seed);
    m.set("serving.single_query_ns",
          per_item(tracer, "acasx.action_costs", static_cast<int>(kSingleQueries), 1e9,
                   [&](int) {
                     double acc = 0.0;
                     for (const auto& q : queries) {
                       acc += ctx.table->action_costs(q.tau_s, q.h_ft, q.dh_own_fps,
                                                      q.dh_int_fps, q.ra)[0];
                     }
                     g_sink = acc;
                   }),
          "ns");
  }

  {
    const encounter::StatisticalEncounterModel model;
    m.set("encounter.sample_us",
          per_item(tracer, "encounter.sample", kSamples, 1e6,
                   [&](int b) {
                     RngStream rng = RngStream::derive(seed, "perfbench-encounter", b);
                     double acc = 0.0;
                     for (int i = 0; i < kSamples; ++i) {
                       const auto states = encounter::generate_initial_states(model.sample(rng));
                       acc += states.intruder.position_m.x;
                     }
                     g_sink = acc;
                   }),
          "us");
  }
}

}  // namespace perfbench
