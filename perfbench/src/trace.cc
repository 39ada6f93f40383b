#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/json.h"

namespace perfbench {
namespace {

thread_local uint64_t t_current_span = 0;

uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t mine = next.fetch_add(1);
  return mine;
}

// Length of the union of `intervals` clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t reach = lo;
  for (auto [b, e] : intervals) {
    b = std::max(b, reach);
    e = std::min(e, hi);
    if (e > b) {
      covered += e - b;
      reach = e;
    }
  }
  return covered;
}

// Self time of every span, keyed by span id.
std::map<uint64_t, int64_t> SelfNs(const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<uint64_t, int64_t> self;
  for (const SpanRecord& s : spans) {
    auto it = children.find(s.id);
    const int64_t covered =
        it == children.end() ? 0 : CoveredNs(it->second, s.start_ns, s.end_ns);
    self[s.id] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t Tracer::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_id_;
}

void Tracer::Add(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, SpanSummary> Tracer::Summarize() const {
  const std::vector<SpanRecord> spans = Spans();
  const std::map<uint64_t, int64_t> self = SelfNs(spans);
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& s : spans) {
    SpanSummary& sum = out[s.name];
    ++sum.count;
    sum.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    sum.self_ms += static_cast<double>(self.at(s.id)) / 1e6;
  }
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> spans = Spans();
  const std::map<uint64_t, int64_t> self = SelfNs(spans);
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const SpanRecord& s : spans) origin = std::min(origin, s.start_ns);

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(
        f,
        "%s{\"name\": %s, \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
        "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
        "\"parent\": %llu, \"request\": %llu, \"self_us\": %.3f}}",
        i == 0 ? "" : ",\n", warlock::JsonString(s.name).c_str(),
        s.name.substr(0, s.name.find('.')).c_str(), s.thread,
        static_cast<double>(s.start_ns - origin) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3,
        static_cast<unsigned long long>(s.id),
        static_cast<unsigned long long>(s.parent),
        static_cast<unsigned long long>(s.request),
        static_cast<double>(self.at(s.id)) / 1e3);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

Span::Span(Tracer& tracer, std::string name, uint64_t request)
    : Span(tracer, std::move(name), request, t_current_span) {}

Span::Span(Tracer& tracer, std::string name, uint64_t request,
           uint64_t parent)
    : tracer_(tracer) {
  record_.name = std::move(name);
  record_.request = request;
  record_.parent = parent;
  if (tracer_.enabled()) {
    record_.id = tracer_.NextId();
    record_.thread = ThreadNumber();
    saved_current_ = t_current_span;
    t_current_span = record_.id;
  }
  record_.start_ns = NowNs();
}

double Span::End() {
  if (!open_) {
    return static_cast<double>(record_.end_ns - record_.start_ns) / 1e6;
  }
  open_ = false;
  record_.end_ns = NowNs();
  if (record_.id != 0) {
    t_current_span = saved_current_;
    tracer_.Add(record_);
  }
  return static_cast<double>(record_.end_ns - record_.start_ns) / 1e6;
}

}  // namespace perfbench
