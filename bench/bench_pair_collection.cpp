// Near-pair collection for small fleets: the counting-sort grid's build +
// collect against the direct (i, j) loop (sim::collect_near_pairs_direct),
// per call, at fleet sizes K around sim::Airspace::kDirectPairsMaxAgents.
// Both return the same lexicographic list, so the threshold is the largest
// K at which the direct loop is no slower than the grid on both clouds:
//
//   dense   every aircraft within a few km under the default 25 km radius,
//           like the encounter scenarios and Monte-Carlo geometries (every
//           pair near, the grid one cell);
//   sparse  a 2000 m radius over a square sized for ~5 neighbours per
//           aircraft, like city_corridors traffic at the same radius.
//
// Each iteration collects from one of 16 pre-drawn clouds in turn, so the
// timings are not one layout's.  docs/ARCHITECTURE.md step 0 records the
// measurement behind the constant.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "sim/airspace.h"
#include "util/rng.h"
#include "util/vec3.h"

namespace {

using namespace cav;

constexpr std::size_t kClouds = 16;
constexpr double kDenseRadiusM = 25000.0;
constexpr double kSparseRadiusM = 2000.0;

struct Workload {
  std::vector<std::vector<Vec3>> clouds;
  double radius_m;
};

Workload workload(std::size_t k, bool sparse) {
  // Sparse: K·π·r² / side² ≈ 5 neighbours.
  const double side_m = sparse ? std::sqrt(static_cast<double>(k) * 3.14159 *
                                           kSparseRadiusM * kSparseRadiusM / 5.0)
                               : 8000.0;
  Workload w{{}, sparse ? kSparseRadiusM : kDenseRadiusM};
  for (std::size_t c = 0; c < kClouds; ++c) {
    RngStream rng = RngStream::derive(c, sparse ? "sparse" : "dense", k);
    std::vector<Vec3> positions(k);
    for (Vec3& p : positions) {
      p = {rng.uniform(0.0, side_m), rng.uniform(0.0, side_m), rng.uniform(900.0, 1100.0)};
    }
    w.clouds.push_back(std::move(positions));
  }
  return w;
}

void BM_GridPairs(benchmark::State& state) {
  const Workload w = workload(static_cast<std::size_t>(state.range(0)), state.range(1) == 1);
  sim::SpatialHashGrid grid;
  std::vector<std::pair<int, int>> pairs;
  std::size_t c = 0;
  for (auto _ : state) {
    const std::vector<Vec3>& positions = w.clouds[c++ % kClouds];
    pairs.clear();
    grid.build(positions, w.radius_m);
    grid.collect_near_pairs(positions, w.radius_m, &pairs);
    benchmark::DoNotOptimize(pairs.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(state.range(1) == 1 ? "sparse" : "dense");
}

void BM_DirectPairs(benchmark::State& state) {
  const Workload w = workload(static_cast<std::size_t>(state.range(0)), state.range(1) == 1);
  std::vector<std::pair<int, int>> pairs;
  std::size_t c = 0;
  for (auto _ : state) {
    const std::vector<Vec3>& positions = w.clouds[c++ % kClouds];
    pairs.clear();
    sim::collect_near_pairs_direct(positions, w.radius_m, 0, positions.size(), &pairs);
    benchmark::DoNotOptimize(pairs.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(state.range(1) == 1 ? "sparse" : "dense");
}

void fleet_sizes(benchmark::internal::Benchmark* b) {
  for (const int sparse : {0, 1}) {
    for (const int k : {2, 8, 16, 32, 48, 64, 80, 96, 112, 128, 256}) b->Args({k, sparse});
  }
}

BENCHMARK(BM_GridPairs)->Apply(fleet_sizes);
BENCHMARK(BM_DirectPairs)->Apply(fleet_sizes);

}  // namespace

int main(int argc, char** argv) {
  cav::bench::init(argc, argv);
  std::printf("Near-pair collection: grid build + collect vs the direct loop, per call.\n"
              "Args: {K, sparse}.  Airspace collects directly up to K = %zu.\n\n",
              cav::sim::Airspace::kDirectPairsMaxAgents);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
