// Span recorder for the traced run. Spans are recorded only from the benchmark's own code,
// around its calls into each layer; the simulator itself is not instrumented.
//
// Each span has a name ("layer.what"), start, end, parent and unit id. Spans are appended to a
// per-thread buffer (no lock on the hot path) and collected when the run ends. A span opened
// with no enclosing span on its own thread takes the process-wide root (SetRoot) as parent, so
// work fanned out to a worker pool nests under the unit that waits for it.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // string literal: "<layer>.<what>"
  int id = 0;
  int parent = -1;
  int unit = -1;
  int thread = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class Spans {
 public:
  // Off by default: untraced runs record nothing.
  static void Enable(bool on);
  static bool enabled();

  // Parent for spans opened on a thread with no open span of its own (-1 = none).
  static void SetRoot(int id);

  // Opens a span on the calling thread and returns its id (-1 when disabled). Its parent is
  // the innermost open span on this thread, else the root.
  static int Begin(const char* name, int unit);
  static void End(int id);
  // Records an already-measured interval (hook-to-hook gaps inside a runner).
  static void Add(const char* name, int unit, int parent, int64_t start_ns, int64_t end_ns);

  // The id the next span will get: spans of a stretch of work are those with ids in
  // [NextId() before, NextId() after).
  static int NextId();

  // Every span recorded so far, from every thread, sorted by id.
  static std::vector<Span> Collect();

  // Self time summed per layer (the name up to its first '.'), in nanoseconds.
  static std::map<std::string, int64_t> LayerSelfNs(const std::vector<Span>& spans);

  // Writes the spans as a Chrome trace (chrome://tracing, Perfetto). False on I/O failure.
  static bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);
};

// RAII form of Begin/End.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, int unit) : id_(Spans::Begin(name, unit)) {}
  ~ScopedSpan() { Spans::End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
