// Shared pieces of the repository benchmark: run options, the metric
// record, the span tracer, host measurements, and the entry points of the
// three workloads and the traced-only layer probes.
//
// Every workload is a closed loop driven from one process: the next unit
// of work starts when the previous one returns.  The untraced run measures
// the end-to-end metrics; the traced run (--trace 1) records a span around
// every call the benchmark makes into a layer's public entry point and
// derives the per-layer metrics from those spans and from counts read out
// of public result structs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "acasx/logic_table.h"
#include "serving/policy_server.h"

namespace perfbench {

// --- Metrics -----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named metrics in insertion order.
class Metrics {
 public:
  /// Record `name`, replacing any earlier value.
  void set(const std::string& name, double value, const std::string& unit);
  /// Record `name` only if nothing recorded it yet (layer probes fill the
  /// layers the primary workload did not exercise).
  void set_default(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string to_json() const;

 private:
  std::vector<Metric> items_;
};

// --- Tracing -----------------------------------------------------------

/// In-memory span recorder.  Spans carry (name, start, end, parent,
/// request id); names are "<src module>.<entry point>", so a span's layer
/// is the text before the first dot.  Disabled tracers record nothing and
/// read no clocks.  Single-threaded: every span opens and closes on the
/// benchmark's main thread (the campaign hooks fire there too).
class Tracer {
 public:
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// A fresh request id; spans of one unit of work share it.
  std::uint64_t next_request() { return ++last_request_; }
  std::uint64_t last_request() const { return last_request_; }

  /// `name` must be a string literal (it is stored by pointer).
  std::size_t begin(const char* name, std::uint64_t request);
  void end(std::size_t id);
  /// A zero-length marker (campaign spawn / stripe-result hooks); returns
  /// its time on the tracer clock.
  double instant(const char* name, std::uint64_t request);

  /// Seconds since the tracer was created.
  double now_s() const;

  /// Durations of every closed span called `name` whose request id is at
  /// least `first_request`, in recording order.
  std::vector<double> durations(std::string_view name, std::uint64_t first_request = 0) const;

  /// Self time per layer over all spans of `request` ids in
  /// [first_request, last_request]: each span's duration minus the time
  /// its direct children cover, summed by layer.
  std::vector<std::pair<std::string, double>> self_time_by_layer(
      std::uint64_t first_request, std::uint64_t last_request) const;

  /// Write every span as Chrome trace-event JSON (chrome://tracing,
  /// ui.perfetto.dev).  Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    std::size_t parent;
    std::uint64_t request;
    bool instant;
  };

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
  std::uint64_t last_request_ = 0;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t request)
      : tracer_(tracer), id_(tracer.enabled() ? tracer.begin(name, request) : Tracer::kNone) {}
  ~ScopedSpan() {
    if (id_ != Tracer::kNone) tracer_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::size_t id_;
};

// --- Host measurements (measure.cpp) -----------------------------------

double wall_s();          ///< steady clock, seconds
double process_cpu_s();   ///< CPU of every thread of this process
struct ChildUsage {
  double cpu_s = 0.0;        ///< user + system CPU of reaped children
  double peak_rss_mb = 0.0;  ///< largest reaped child's high-water mark
};
ChildUsage children_usage();
double peak_rss_mb();     ///< this process's high-water mark
double current_rss_mb();  ///< this process's resident set now

/// Aggregate CPU tick counters from /proc/stat (zeros when unreadable).
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks read_cpu_ticks();
/// Share of all CPU ticks between two samples that the hypervisor stole.
double steal_share(const CpuTicks& before, const CpuTicks& after);

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Logical CPUs available (>= 1).
std::size_t nproc();

// --- Run context -------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Set-up artifacts shared by the workload and the traced layer probes,
/// plus everything a run reports.
struct Context {
  Options options;
  Tracer tracer;
  /// The standard pairwise table, once some set-up solved it.
  std::shared_ptr<const cav::acasx::LogicTable> table;
  /// f32 TableImage of `table`, once some set-up dumped it.
  std::string image_path;
  /// Per-unit samples of the primary workload (run() calls, campaign
  /// calls, query blocks), kept in the run record.
  std::vector<double> unit_ops_per_s;
  std::vector<double> unit_cpu_us_per_op;

  Metrics end_to_end;
  Metrics layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::pair<std::string, std::string>> notes;  ///< extra facts for the record

  explicit Context(Options opts) : options(std::move(opts)), tracer(options.trace) {}

  /// Count `ops` attempted and `failed_ops` failed (ops a check already
  /// counted may fail a later check: pass ops = 0); remember why.
  void count(std::uint64_t ops, std::uint64_t failed_ops, const std::string& why);
};

/// What one workload call runs: the full workload measured over the
/// window, or a small fixed probe of its layers (traced runs only).
struct Plan {
  bool primary = true;
  int setup_reps = 3;
  double window_s = 10.0;
};

/// Record a per-layer metric: the primary workload's value wins, probes
/// only fill layers nothing measured yet.
void put_layer(Context& ctx, const Plan& plan, const std::string& name, double value,
               const std::string& unit);
/// Record the end-to-end metrics of the primary workload: the median
/// set-up, the peak RSS, and ops_per_s / cpu_us_per_op from the window's
/// units, all of equal work: the rate sustained in three units of four
/// (the lower quartile of per-unit throughput) and the upper quartile of
/// per-unit CPU cost.  On the shared host a thread runs in bursts up to
/// ~1.7x faster than its common rate (serve units: ~8 M against 13-14 M
/// queries/s); the bursts come and go within a run, so the median followed
/// how many a run happened to get, while the quartile tracks the common
/// state.
void record_end_to_end(Context& ctx, const std::vector<double>& setup_s, double peak_rss,
                       std::vector<double> unit_ops_per_s, std::vector<double> unit_cpu_us);

/// Solve a pairwise table serially (span acasx.solve).
std::shared_ptr<const cav::acasx::LogicTable> solve_table(Context& ctx,
                                                         const cav::acasx::AcasXuConfig& config,
                                                         std::uint64_t request);
/// Dump `table` as an f32 TableImage named `file` under the output
/// directory (span serving.dump); returns its path.
std::string dump_image(Context& ctx, const cav::acasx::LogicTable& table, const char* file,
                       std::uint64_t request);
/// Record acasx.solve_s and serving.dump_s from the set-up spans of
/// requests >= first_request (the primary workload's own set-up).
void record_setup_layers(Context& ctx, std::uint64_t first_request);

void run_city(Context& ctx, const Plan& plan);
void run_campaign(Context& ctx, const Plan& plan);
void run_serve(Context& ctx, const Plan& plan);
/// The util/serving/encounter micro-probes (traced runs only).
void run_micro_probes(Context& ctx);

/// The E15 query distribution: axes uniform with 10% overshoot on each
/// side, tau over [0, tau_max + 2], prior advisory uniform.  Drawn from the
/// benchmark's own generator so the inputs depend only on `seed`.
std::vector<cav::serving::TrackQuery> make_queries(const cav::acasx::AcasXuConfig& config,
                                                   std::size_t n, std::uint64_t seed);

}  // namespace perfbench
