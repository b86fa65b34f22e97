// The span tracer: in-memory spans, per-layer self time, Chrome trace
// export.
#include <cstdio>
#include <map>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

std::string_view layer_of(const char* name) {
  const std::string_view n(name);
  return n.substr(0, n.find('.'));
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

double Tracer::now_s() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch_).count();
}

std::size_t Tracer::begin(const char* name, std::uint64_t request) {
  const std::size_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back({name, now_s(), -1.0, parent, request, false});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::end(std::size_t id) {
  spans_[id].end_s = now_s();
  // Spans are scoped, so the one closing is the innermost open one.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::instant(const char* name, std::uint64_t request) {
  const double t = now_s();
  if (!enabled_) return t;
  const std::size_t parent = open_.empty() ? kNone : open_.back();
  spans_.push_back({name, t, t, parent, request, true});
  return t;
}

std::vector<double> Tracer::durations(std::string_view name, std::uint64_t first_request) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (!s.instant && s.end_s >= 0.0 && s.request >= first_request && name == s.name) {
      out.push_back(s.end_s - s.start_s);
    }
  }
  return out;
}

std::vector<std::pair<std::string, double>> Tracer::self_time_by_layer(
    std::uint64_t first_request, std::uint64_t last_request) const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (!s.instant && s.parent != kNone && s.end_s >= 0.0) {
      child_s[s.parent] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double, std::less<>> by_layer;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.instant || s.end_s < 0.0 || s.request < first_request || s.request > last_request) {
      continue;
    }
    by_layer[std::string(layer_of(s.name))] += (s.end_s - s.start_s) - child_s[i];
  }
  return {by_layer.begin(), by_layer.end()};
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer(layer_of(s.name));
    const long long parent = s.parent == kNone ? -1 : static_cast<long long>(s.parent);
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", \"ts\": %.3f, "
                 "\"pid\": 1, \"tid\": 1, ",
                 i ? ",\n" : "", s.name, layer.c_str(), s.instant ? "i" : "X",
                 1e6 * s.start_s);
    if (s.instant) {
      std::fprintf(f, "\"s\": \"t\", ");
    } else {
      std::fprintf(f, "\"dur\": %.3f, ", 1e6 * (s.end_s - s.start_s));
    }
    std::fprintf(f, "\"args\": {\"id\": %zu, \"parent\": %lld, \"request\": %llu}}", i, parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
