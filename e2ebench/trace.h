// In-memory span recorder for the traced replay. Each span records its
// name, start, end, parent and request id; spans stay in memory and are
// written once, at the end, as Chrome trace-event JSON and as a per-layer
// summary (calls, total, self = span minus its children, p50/p99 per call).
//
// The spans wrap calls into each module's public functions from the
// harness's own code; nothing inside the system under test is traced.
#ifndef SGQ_E2EBENCH_TRACE_H_
#define SGQ_E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

class Tracer {
 public:
  // A disabled tracer reads no clock and records nothing: the replay runs
  // once each way to measure what tracing itself costs.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Opens a span as a child of the innermost open span. `name` must be a
  // string literal (stored by pointer).
  void Begin(const char* name, uint32_t request);
  void End();

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint32_t request)
        : tracer_(tracer) {
      tracer_->Begin(name, request);
    }
    ~Scope() { tracer_->End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  struct LayerSummary {
    std::string name;
    uint64_t calls = 0;
    double total_ms = 0;
    double self_ms = 0;
    double p50_us = 0;
    double p99_us = 0;
  };
  // One row per span name, in first-seen order.
  std::vector<LayerSummary> Summarize() const;

  // Total duration of all spans named `name`, in milliseconds, and how
  // many there were.
  double TotalMs(const char* name) const;
  uint64_t Calls(const char* name) const;

  // Chrome trace-event JSON ("X" events, one thread per request id); at
  // most `max_events` spans are written, the first ones recorded.
  std::string ChromeJson(size_t max_events) const;

 private:
  struct Span {
    const char* name;
    int32_t parent;
    uint32_t request;
    int64_t start_ns;
    int64_t end_ns;
  };
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  const bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;  // stack of open span indices
};

}  // namespace e2e

#endif  // SGQ_E2EBENCH_TRACE_H_
