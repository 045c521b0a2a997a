#include "perfbench/src/spans.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>

#include "perfbench/src/arith.h"

namespace perfbench {

namespace {

struct ThreadBuffer {
  int thread = 0;
  std::vector<Span> done;
  std::vector<Span> open;  // stack of spans begun but not ended on this thread
};

std::atomic<bool> g_enabled{false};
std::atomic<int> g_next_id{0};
std::atomic<int> g_root{-1};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu

ThreadBuffer& Local() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<int>(g_buffers.size()) - 1;
  }
  return *buffer;
}

}  // namespace

void Spans::Enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Spans::enabled() { return g_enabled.load(std::memory_order_relaxed); }
int Spans::NextId() { return g_next_id.load(std::memory_order_relaxed); }
void Spans::SetRoot(int id) { g_root.store(id, std::memory_order_relaxed); }

int Spans::Begin(const char* name, int unit) {
  if (!enabled()) {
    return -1;
  }
  ThreadBuffer& buffer = Local();
  Span span;
  span.name = name;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent =
      buffer.open.empty() ? g_root.load(std::memory_order_relaxed) : buffer.open.back().id;
  span.unit = unit;
  span.thread = buffer.thread;
  span.start_ns = NowNs();
  buffer.open.push_back(span);
  return span.id;
}

void Spans::End(int id) {
  if (id < 0) {
    return;
  }
  int64_t now = NowNs();
  ThreadBuffer& buffer = Local();
  // Spans close in LIFO order on their own thread; search from the top to stay robust.
  for (size_t i = buffer.open.size(); i-- > 0;) {
    if (buffer.open[i].id == id) {
      Span span = buffer.open[i];
      span.end_ns = now;
      buffer.open.erase(buffer.open.begin() + static_cast<std::ptrdiff_t>(i));
      buffer.done.push_back(span);
      return;
    }
  }
}

void Spans::Add(const char* name, int unit, int parent, int64_t start_ns, int64_t end_ns) {
  if (!enabled()) {
    return;
  }
  ThreadBuffer& buffer = Local();
  Span span;
  span.name = name;
  span.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  span.parent = parent;
  span.unit = unit;
  span.thread = buffer.thread;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  buffer.done.push_back(span);
}

std::vector<Span> Spans::Collect() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->done.begin(), buffer->done.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

std::map<std::string, int64_t> Spans::LayerSelfNs(const std::vector<Span>& spans) {
  std::vector<SpanTimes> times;
  times.reserve(spans.size());
  for (const Span& s : spans) {
    times.push_back(SpanTimes{s.id, s.parent, s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self = SelfTimes(times);
  std::map<std::string, int64_t> layers;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string name = spans[i].name;
    layers[name.substr(0, name.find('.'))] += self[i];
  }
  return layers;
}

bool Spans::WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    origin = std::min(origin, s.start_ns);
  }
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "  {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
        << ", \"ts\": " << (s.start_ns - origin) / 1000.0
        << ", \"dur\": " << (s.end_ns - s.start_ns) / 1000.0 << ", \"args\": {\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"unit\": " << s.unit << "}}"
        << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
