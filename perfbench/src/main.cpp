// perfbench: the repository benchmark binary (see perfbench/README.md).
//
//   perfbench --workload city|campaign|serve --seed N --seconds S
//             --trace 0|1 [--out-dir DIR]
//
// Prints a detail line ("detail {...}": host facts, traced end-to-end
// values, per-layer self time, check failures) and, as the last line, the
// result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics untraced, the per-layer metrics traced.  Exit code 0
// on a completed run, 1 on an error (no result line), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "acasx/offline_solver.h"
#include "bench.h"

namespace perfbench {

namespace {

using Runner = void (*)(Context&, const Plan&);

struct Workload {
  const char* name;
  Runner run;
  int setup_reps;
};

/// Set-up repetitions trade run time for a steadier setup_s median; serve's
/// set-up (coarse table) takes ~30 ms, so it repeats most.
constexpr Workload kWorkloads[] = {
    {"city", run_city, 5},
    {"campaign", run_campaign, 5},
    {"serve", run_serve, 15},
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload city|campaign|serve --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n",
               argv0);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_array(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%.6g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

}  // namespace

std::shared_ptr<const cav::acasx::LogicTable> solve_table(Context& ctx,
                                                         const cav::acasx::AcasXuConfig& config,
                                                         std::uint64_t request) {
  ScopedSpan span(ctx.tracer, "acasx.solve", request);
  return std::make_shared<const cav::acasx::LogicTable>(cav::acasx::solve_logic_table(config));
}

std::string dump_image(Context& ctx, const cav::acasx::LogicTable& table, const char* file,
                       std::uint64_t request) {
  ScopedSpan span(ctx.tracer, "serving.dump", request);
  const std::string path = ctx.options.out_dir + "/" + file;
  table.save(path);
  return path;
}

void record_setup_layers(Context& ctx, std::uint64_t first_request) {
  if (!ctx.tracer.enabled()) return;
  ctx.layers.set("acasx.solve_s", median(ctx.tracer.durations("acasx.solve", first_request)),
                 "s");
  const auto dumps = ctx.tracer.durations("serving.dump", first_request);
  if (!dumps.empty()) ctx.layers.set("serving.dump_s", median(dumps), "s");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0.0;
    } else if (key == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) selected = &w;
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace ||
      selected == nullptr) {
    return usage(argv[0]);
  }

  Context ctx(options);
  std::string self_json = "{";
  double steal = 0.0;
  try {
    std::filesystem::create_directories(options.out_dir);
    const CpuTicks ticks0 = read_cpu_ticks();
    selected->run(ctx, Plan{true, selected->setup_reps, options.seconds});
    steal = steal_share(ticks0, read_cpu_ticks());

    if (options.trace) {
      const std::uint64_t last_primary = ctx.tracer.last_request();
      run_micro_probes(ctx);
      // Layers the selected workload does not exercise are measured on a
      // small fixed probe of the workload that does, so every traced run
      // reports every per-layer metric.
      for (const Workload& w : kWorkloads) {
        if (&w != selected) w.run(ctx, Plan{false, 1, 0.0});
      }
      // city dumps no image; its traced run takes serving.dump_s from the
      // campaign probe's set-up.
      ctx.layers.set_default("serving.dump_s",
                             median(ctx.tracer.durations("serving.dump", last_primary + 1)), "s");

      const auto self = ctx.tracer.self_time_by_layer(1, last_primary);
      for (std::size_t i = 0; i < self.size(); ++i) {
        self_json += (i ? ", " : "") + json_string(self[i].first) + ": " +
                     std::to_string(self[i].second);
      }
      const std::string trace_path = options.out_dir + "/trace-" + options.workload + "-" +
                                     std::to_string(options.seed) + ".json";
      if (!ctx.tracer.write_chrome(trace_path)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", trace_path.c_str());
        return 1;
      }
      ctx.notes.emplace_back("chrome_trace", json_string(trace_path));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  self_json += "}";

  std::string failures = "[";
  for (std::size_t i = 0; i < ctx.check_failures.size(); ++i) {
    failures += (i ? ", " : "") + json_string(ctx.check_failures[i]);
  }
  failures += "]";
  std::string notes = ", \"unit_ops_per_s\": " + json_array(ctx.unit_ops_per_s) +
                      ", \"unit_cpu_us_per_op\": " + json_array(ctx.unit_cpu_us_per_op);
  for (const auto& [key, value] : ctx.notes) notes += ", " + json_string(key) + ": " + value;

  std::printf(
      "detail {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, \"trace\": %d, "
      "\"nproc\": %zu, \"compiler\": %s, \"build_type\": %s, \"cxx_flags\": %s, "
      "\"steal_share\": %.6f, \"end_to_end\": %s, \"self_s\": %s, \"check_failures\": %s%s}\n",
      json_string(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, nproc(), json_string(__VERSION__).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), json_string(PERFBENCH_CXX_FLAGS).c_str(), steal,
      ctx.end_to_end.to_json().c_str(), self_json.c_str(), failures.c_str(), notes.c_str());

  const bool correct = ctx.failed == 0 && ctx.check_failures.empty() && ctx.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(ctx.attempted),
              static_cast<unsigned long long>(ctx.failed),
              (options.trace ? ctx.layers : ctx.end_to_end).to_json().c_str());
  return 0;
}
