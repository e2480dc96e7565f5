// In-memory span recording for the traced run.
//
// Spans are recorded from the benchmark's own files, around calls into
// each layer's public functions: nothing inside the program is
// instrumented.  Each span has its own id, the id of the span that caused
// it (`parent`, 0 for a root) and the id of the build or request it
// belongs to (`trace`).  Spans stay in per-thread buffers until the run
// ends; write_chrome_trace() then emits Chrome trace-event JSON
// (`ph:"X"`), which Perfetto and chrome://tracing load directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace retra::e2e {

/// Monotonic nanoseconds (steady_clock) — the one clock of every span
/// and every end-to-end timing.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = "";  // a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  /// Display row: the rank, client or driver thread the span ran on.
  std::uint32_t lane = 0;

  std::uint64_t duration_ns() const { return end_ns - start_ns; }
};

/// A fresh span id (never 0).
std::uint64_t next_span_id();

/// Appends a finished span to the calling thread's buffer.
void record_span(const Span& span);

/// Every recorded span, ordered by start time.  Call only once the
/// recording threads have been joined.
std::vector<Span> collected_spans();

/// The calling thread's current causing span and trace; ScopedSpan
/// pushes itself here so nested spans find their parent.
struct SpanContext {
  std::uint64_t parent = 0;
  std::uint64_t trace = 0;
  std::uint32_t lane = 0;
};
SpanContext& current_context();

/// Records [construction, destruction) as a child of the thread's
/// current span, and is the current span in between.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  SpanContext saved_;
};

/// Self time of every span (its duration minus the union of its
/// children's intervals) plus the nesting violations found on the way: a
/// child outside its parent's interval, an unknown parent, or a negative
/// self time.
struct SpanAnalysis {
  std::vector<std::int64_t> self_ns;  // parallel to the input spans
  std::vector<std::string> errors;
};
SpanAnalysis analyze_spans(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON; false on I/O failure.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace retra::e2e
