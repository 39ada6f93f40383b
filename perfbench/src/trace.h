#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span: a call into a layer, timed from the benchmark's side.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root.
  uint64_t request = 0;  ///< Spans of one operation share this id.
  uint32_t thread = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name aggregate of closed spans. Self time is a span's duration minus
/// the part of its interval that its child spans cover.
struct SpanSummary {
  uint64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// In-memory span store. A disabled tracer records nothing, so untraced runs
/// pay one branch per span. Thread-safe.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  uint64_t NextId();
  void Add(SpanRecord record);

  std::map<std::string, SpanSummary> Summarize() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps; id, parent, request and self time in `args`).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<SpanRecord> Spans() const;

  bool enabled_;
  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span. The parent defaults to the innermost open span of the calling
/// thread; pass one explicitly for work fanned out to other threads. The
/// duration is measured whether or not the tracer records, so callers can
/// use `End()` as their stopwatch.
class Span {
 public:
  Span(Tracer& tracer, std::string name, uint64_t request = 0);
  Span(Tracer& tracer, std::string name, uint64_t request, uint64_t parent);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { End(); }

  uint64_t id() const { return record_.id; }

  /// Closes the span (idempotent) and returns its duration in ms.
  double End();

 private:
  Tracer& tracer_;
  SpanRecord record_;
  uint64_t saved_current_ = 0;
  bool open_ = true;
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
