#include "trace.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string_view>

#include "json.h"
#include "stats.h"

namespace e2e {

void Tracer::Begin(const char* name, uint32_t request) {
  if (!enabled_) return;
  const int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int32_t>(spans_.size()));
  spans_.push_back({name, parent, request, NowNs(), 0});
}

void Tracer::End() {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

std::vector<Tracer::LayerSummary> Tracer::Summarize() const {
  // Child time per span, for self time.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<LayerSummary> rows;
  std::map<std::string_view, size_t> row_of;
  std::vector<std::vector<double>> durations_us;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, inserted] = row_of.emplace(s.name, rows.size());
    if (inserted) {
      rows.push_back({s.name, 0, 0, 0, 0, 0});
      durations_us.emplace_back();
    }
    LayerSummary& row = rows[it->second];
    const int64_t d = s.end_ns - s.start_ns;
    ++row.calls;
    row.total_ms += static_cast<double>(d) / 1e6;
    row.self_ms += static_cast<double>(d - child_ns[i]) / 1e6;
    durations_us[it->second].push_back(static_cast<double>(d) / 1e3);
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    rows[r].p50_us = Percentile(durations_us[r], 50);
    rows[r].p99_us = Percentile(durations_us[r], 99);
  }
  return rows;
}

double Tracer::TotalMs(const char* name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

uint64_t Tracer::Calls(const char* name) const {
  uint64_t n = 0;
  for (const Span& s : spans_) n += std::strcmp(s.name, name) == 0;
  return n;
}

std::string Tracer::ChromeJson(size_t max_events) const {
  const int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  const size_t n = std::min(max_events, spans_.size());
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    out += "{\"name\":" + Quote(s.name) + ",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(s.request) +
           ",\"ts\":" + Number(static_cast<double>(s.start_ns - t0) / 1e3) +
           ",\"dur\":" + Number(static_cast<double>(s.end_ns - s.start_ns) / 1e3) +
           ",\"args\":{\"parent\":" + std::to_string(s.parent) + "}}";
  }
  out += "],\"otherData\":{\"spans_recorded\":" +
         std::to_string(spans_.size()) +
         ",\"spans_written\":" + std::to_string(n) + "}}\n";
  return out;
}

}  // namespace e2e
