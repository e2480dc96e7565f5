#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>

namespace retra::e2e {

namespace {

// A deque, not a vector: growing it never copies the spans already
// recorded, so a traced hot loop sees no reallocation stalls.
using Buffer = std::deque<Span>;

struct Registry {
  std::mutex mutex;
  std::vector<std::unique_ptr<Buffer>> buffers;  // guarded by mutex
};

Registry& registry() {
  static Registry instance;
  return instance;
}

std::atomic<std::uint64_t> g_next_id{1};

Buffer& thread_buffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<Buffer>();
    buffer = owned.get();
    Registry& reg = registry();
    const std::lock_guard<std::mutex> lock(reg.mutex);
    reg.buffers.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

std::uint64_t next_span_id() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

void record_span(const Span& span) { thread_buffer().push_back(span); }

std::vector<Span> collected_spans() {
  std::vector<Span> spans;
  Registry& reg = registry();
  const std::lock_guard<std::mutex> lock(reg.mutex);
  for (const auto& buffer : reg.buffers) {
    spans.insert(spans.end(), buffer->begin(), buffer->end());
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return spans;
}

SpanContext& current_context() {
  thread_local SpanContext context;
  return context;
}

ScopedSpan::ScopedSpan(const char* name) : saved_(current_context()) {
  span_.name = name;
  span_.id = next_span_id();
  span_.parent = saved_.parent;
  span_.trace = saved_.trace;
  span_.lane = saved_.lane;
  current_context().parent = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  span_.end_ns = now_ns();
  current_context() = saved_;
  record_span(span_);
}

SpanAnalysis analyze_spans(const std::vector<Span>& spans) {
  SpanAnalysis analysis;
  analysis.self_ns.resize(spans.size());
  std::uint64_t max_id = 0;
  for (const Span& span : spans) max_id = std::max(max_id, span.id);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> by_id(max_id + 1, kNone);
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;

  std::uint64_t violations = 0;
  auto violation = [&](const std::string& message) {
    if (++violations <= 8) analysis.errors.push_back(message);
  };

  // Children grouped by parent index, in start order (spans are sorted).
  std::vector<std::pair<std::size_t, std::size_t>> edges;  // parent, child
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& child = spans[i];
    if (child.end_ns < child.start_ns) {
      violation(std::string(child.name) + " ends before it starts");
    }
    if (child.parent == 0) continue;
    const std::size_t p =
        child.parent <= max_id ? by_id[child.parent] : kNone;
    if (p == kNone) {
      violation(std::string(child.name) + " has an unknown parent");
      continue;
    }
    const Span& parent = spans[p];
    if (child.start_ns < parent.start_ns || child.end_ns > parent.end_ns) {
      violation(std::string(child.name) + " lies outside its parent " +
                parent.name);
    }
    edges.emplace_back(p, i);
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });

  for (std::size_t i = 0; i < spans.size(); ++i) {
    analysis.self_ns[i] = static_cast<std::int64_t>(spans[i].duration_ns());
  }
  for (std::size_t e = 0; e < edges.size();) {
    const std::size_t p = edges[e].first;
    // Union of the children's intervals (they arrive in start order).
    std::uint64_t covered = 0;
    std::uint64_t run_start = 0;
    std::uint64_t run_end = 0;
    bool open = false;
    for (; e < edges.size() && edges[e].first == p; ++e) {
      const Span& child = spans[edges[e].second];
      if (open && child.start_ns <= run_end) {
        run_end = std::max(run_end, child.end_ns);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = child.start_ns;
      run_end = child.end_ns;
      open = true;
    }
    if (open) covered += run_end - run_start;
    analysis.self_ns[p] -= static_cast<std::int64_t>(covered);
    if (analysis.self_ns[p] < 0) {
      violation(std::string(spans[p].name) + " has negative self time");
    }
  }
  if (violations > 8) {
    analysis.errors.push_back("... " + std::to_string(violations - 8) +
                              " more span violations");
  }
  return analysis;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu32
                 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64
                 ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64 "}}\n",
                 i == 0 ? "" : ",", s.name, s.lane,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, s.trace, s.id,
                 s.parent);
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace retra::e2e
