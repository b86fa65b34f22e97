// Host measurements (clocks, CPU time, resident memory, hypervisor steal)
// and the metric record.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

double wall_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

ChildUsage children_usage() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return {timeval_s(ru.ru_utime) + timeval_s(ru.ru_stime),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return static_cast<double>(resident_pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

CpuTicks read_cpu_ticks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal guest guest_nice".
  // guest and guest_nice are already folded into user and nice.
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line)) return {};
  std::istringstream fields(line);
  std::string label;
  fields >> label;
  std::uint64_t v[8] = {};
  for (auto& x : v) fields >> x;
  CpuTicks ticks;
  ticks.steal = v[7];
  for (const auto x : v) ticks.total += x;
  return ticks;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double median(std::vector<double> values) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::size_t nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

// --- Metrics -----------------------------------------------------------

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

void Metrics::set_default(const std::string& name, double value, const std::string& unit) {
  if (std::none_of(items_.begin(), items_.end(),
                   [&](const Metric& m) { return m.name == name; })) {
    items_.push_back({name, value, unit});
  }
}

std::string Metrics::to_json() const {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < items_.size(); ++i) {
    // %.17g keeps every digit the measurement has; non-finite values are
    // not JSON, so they print as null and fail the result check upstream.
    if (std::isfinite(items_[i].value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", items_[i].value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           items_[i].unit + "\"}";
  }
  return out + "}";
}

void Context::count(std::uint64_t ops, std::uint64_t failed_ops, const std::string& why) {
  attempted += ops;
  failed += failed_ops;
  if (failed_ops > 0) check_failures.push_back(why);
}

void put_layer(Context& ctx, const Plan& plan, const std::string& name, double value,
               const std::string& unit) {
  if (plan.primary) {
    ctx.layers.set(name, value, unit);
  } else {
    ctx.layers.set_default(name, value, unit);
  }
}

void record_end_to_end(Context& ctx, const std::vector<double>& setup_s, double peak_rss,
                       std::vector<double> unit_ops_per_s, std::vector<double> unit_cpu_us) {
  ctx.end_to_end.set("setup_s", median(setup_s), "s");
  ctx.end_to_end.set("peak_rss_mb", peak_rss, "MB");
  ctx.end_to_end.set("ops_per_s", percentile(unit_ops_per_s, 0.25), "1/s");
  ctx.end_to_end.set("cpu_us_per_op", percentile(unit_cpu_us, 0.75), "us");
  ctx.unit_ops_per_s = std::move(unit_ops_per_s);
  ctx.unit_cpu_us_per_op = std::move(unit_cpu_us);
}

}  // namespace perfbench
