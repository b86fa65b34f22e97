#include "bench_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

namespace cav::bench {

namespace {

// --json state: set once by init(), flushed by an atexit handler so every
// bench gets the artifact without per-bench bookkeeping.
std::string json_path;                                       // NOLINT
std::string bench_name = "bench";                            // NOLINT
std::vector<std::pair<std::string, double>> metrics;         // NOLINT
std::chrono::steady_clock::time_point bench_start;           // NOLINT

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void write_json_at_exit() {
  if (json_path.empty()) return;
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - bench_start).count();
  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"" << json_escape(bench_name) << "\",\n"
      << "  \"smoke\": " << (smoke() ? "true" : "false") << ",\n"
      << "  \"wall_s\": " << wall_s << ",\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << "\n    \"" << json_escape(metrics[i].first)
        << "\": " << metrics[i].second;
  }
  out << (metrics.empty() ? "" : "\n  ") << "}\n}\n";
  out.close();
  if (!out) {
    // A bench whose result is lost has failed: exit non-zero.  exit() may
    // not be called again from an atexit handler, so flush and _Exit.
    std::fprintf(stderr, "[bench] cannot write %s\n", json_path.c_str());
    std::fflush(nullptr);
    std::_Exit(EXIT_FAILURE);
  }
}

}  // namespace

void init(int argc, char** argv) {
  bench_start = std::chrono::steady_clock::now();
  if (argc > 0) {
    bench_name = std::filesystem::path(argv[0]).filename().string();
  }
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_path = argv[i + 1];
    }
  }
  if (!json_path.empty()) std::atexit(write_json_at_exit);
}

void record_metric(const std::string& name, double value) {
  for (auto& [key, stored] : metrics) {
    if (key == name) {
      stored = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

std::string output_dir() {
  static const std::string dir = [] {
    std::filesystem::path p = std::filesystem::current_path() / "bench_artifacts";
    std::filesystem::create_directories(p);
    return p.string();
  }();
  return dir;
}

namespace {

/// A cached table is usable only if it was built from today's config.
bool compatible(const acasx::AcasXuConfig& cached, const acasx::AcasXuConfig& wanted) {
  return cached.space.h_ft == wanted.space.h_ft &&
         cached.space.dh_own_fps == wanted.space.dh_own_fps &&
         cached.space.dh_int_fps == wanted.space.dh_int_fps &&
         cached.space.tau_max == wanted.space.tau_max &&
         cached.costs.nmac_cost == wanted.costs.nmac_cost &&
         cached.costs.maneuver_cost == wanted.costs.maneuver_cost &&
         cached.costs.level_reward == wanted.costs.level_reward &&
         cached.costs.termination_cost == wanted.costs.termination_cost &&
         cached.dynamics.accel_noise_sigma_fps2 == wanted.dynamics.accel_noise_sigma_fps2;
}

}  // namespace

bool smoke() {
  static const bool value = [] {
    const char* env = std::getenv("CAV_BENCH_SMOKE");
    return env != nullptr && std::strcmp(env, "0") != 0 && std::strcmp(env, "") != 0;
  }();
  return value;
}

std::shared_ptr<const acasx::LogicTable> standard_table() {
  static std::shared_ptr<const acasx::LogicTable> table = [] {
    // Smoke runs solve the coarse space instead (same code paths) and skip
    // the cache so they never clobber a real standard table on disk.
    if (smoke()) {
      acasx::SolveStats stats;
      auto solved = std::make_shared<const acasx::LogicTable>(
          acasx::solve_logic_table(acasx::AcasXuConfig::coarse(), &pool(), &stats));
      std::printf("[setup] smoke mode: solved coarse logic table in %.2f s\n",
                  stats.wall_seconds);
      return solved;
    }

    const acasx::AcasXuConfig wanted = acasx::AcasXuConfig::standard();
    const std::string cache_path = output_dir() + "/standard_table.bin";

    if (std::filesystem::exists(cache_path)) {
      try {
        auto cached = std::make_shared<const acasx::LogicTable>(
            acasx::LogicTable::load(cache_path));
        if (compatible(cached->config(), wanted)) {
          std::printf("[setup] loaded cached logic table from %s\n", cache_path.c_str());
          return cached;
        }
        std::printf("[setup] cached table config outdated, re-solving\n");
      } catch (const std::exception& e) {
        std::printf("[setup] cache unreadable (%s), re-solving\n", e.what());
      }
    }

    acasx::SolveStats stats;
    auto solved = std::make_shared<const acasx::LogicTable>(
        acasx::solve_logic_table(wanted, &pool(), &stats));
    std::printf("[setup] solved standard logic table: %zu states x %zu layers in %.2f s\n",
                stats.states_per_layer, stats.layers, stats.wall_seconds);
    try {
      solved->save(cache_path);
    } catch (const std::exception& e) {
      std::printf("[setup] could not cache table (%s)\n", e.what());
    }
    return solved;
  }();
  return table;
}

}  // namespace cav::bench
