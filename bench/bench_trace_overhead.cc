// Observability overhead: what tracing and metrics cost on the event-record hot path.
//
// The metrics layer's contract (src/trace/metrics.h) is that instrumentation is one predicted
// branch plus an integer add per event — cheap enough to leave on in every run. This bench
// holds it to that: a fixed monitor-and-yield workload (every iteration crosses several Emit
// sites) runs under three configs — tracing+metrics, tracing only, and everything off — and
// the run exits nonzero if enabling metrics adds more than 10% on top of tracing alone, or if
// tracing itself adds more than kMaxTracingOverhead on top of running dark.
//
//   bench_trace_overhead             # human-readable table; exit 1 past either limit
//
// Each config is timed kRepeats times and the minimum is kept: the workload is deterministic,
// so min-of-N isolates the code's cost from scheduler noise on the host.

#include <chrono>
#include <cstdio>

#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"

namespace {

constexpr int kThreads = 4;
constexpr int kIterations = 5000;
constexpr int kRepeats = 5;
constexpr double kMaxMetricsOverhead = 0.10;
// End-to-end cost of the segmented trace log vs. running dark. The packed 24-byte encoding
// landed this at ~0.04-0.15 on the reference host (down from ~0.34 with the flat vector);
// the gate sits at the top of that band today and should ratchet toward 0.05 as the hot
// path tightens further.
constexpr double kMaxTracingOverhead = 0.15;

struct Measurement {
  const char* name;
  double seconds = 0;     // min over kRepeats
  size_t events = 0;      // recorded trace events (0 with tracing off)
  double events_per_sec = 0;
};

// One full workload run; every loop iteration emits monitor-enter/exit, yield and switch
// events, so wall time here is dominated by the paths the observability layer instruments.
double RunOnce(bool tracing, bool metrics, size_t* events_out) {
  pcr::Config config;
  config.trace_events = tracing;
  config.metrics = metrics;
  const auto t0 = std::chrono::steady_clock::now();
  pcr::Runtime rt(config);
  pcr::MonitorLock mu(rt.scheduler(), "mu");
  for (int t = 0; t < kThreads; ++t) {
    rt.ForkDetached([&] {
      for (int i = 0; i < kIterations; ++i) {
        {
          pcr::MonitorGuard guard(mu);
          pcr::thisthread::Compute(5);
        }
        pcr::thisthread::Yield();
      }
    });
  }
  rt.RunUntilQuiescent(600 * pcr::kUsecPerSec);
  const auto t1 = std::chrono::steady_clock::now();
  *events_out = rt.tracer().size();
  return std::chrono::duration<double>(t1 - t0).count();
}

Measurement Measure(const char* name, bool tracing, bool metrics) {
  Measurement m;
  m.name = name;
  for (int r = 0; r < kRepeats; ++r) {
    size_t events = 0;
    double sec = RunOnce(tracing, metrics, &events);
    if (r == 0 || sec < m.seconds) {
      m.seconds = sec;
    }
    m.events = events;
  }
  // Events/sec is computed against the traced event count even for the tracing-off config, so
  // the three rows stay comparable (the same number of events *happened*; they just were not
  // recorded). The caller fills it in once the traced count is known.
  return m;
}

}  // namespace

int main(int argc, char** /*argv*/) {
  if (argc > 1) {
    std::fprintf(stderr, "usage: bench_trace_overhead\n");
    return 2;
  }

  Measurement full = Measure("tracing+metrics", true, true);
  Measurement trace_only = Measure("tracing", true, false);
  Measurement off = Measure("off", false, false);
  const size_t events = full.events;  // same workload => same event count where recorded
  for (Measurement* m : {&full, &trace_only, &off}) {
    m->events_per_sec = m->seconds > 0 ? static_cast<double>(events) / m->seconds : 0;
  }

  const double metrics_overhead =
      trace_only.seconds > 0 ? full.seconds / trace_only.seconds - 1.0 : 0.0;
  const double tracing_overhead =
      off.seconds > 0 ? trace_only.seconds / off.seconds - 1.0 : 0.0;
  const bool metrics_ok = metrics_overhead <= kMaxMetricsOverhead;
  const bool tracing_ok = tracing_overhead <= kMaxTracingOverhead;
  const bool pass = metrics_ok && tracing_ok;

  for (const Measurement* m : {&full, &trace_only, &off}) {
    std::printf("%-16s %8.4fs  %9.0f events/s\n", m->name, m->seconds, m->events_per_sec);
  }
  std::printf("events per run: %zu\n", events);
  std::printf("metrics overhead on top of tracing: %+.1f%% (limit %.0f%%) -> %s\n",
              metrics_overhead * 100, kMaxMetricsOverhead * 100, metrics_ok ? "OK" : "TOO SLOW");
  std::printf("tracing overhead on top of nothing: %+.1f%% (limit %.0f%%) -> %s\n",
              tracing_overhead * 100, kMaxTracingOverhead * 100, tracing_ok ? "OK" : "TOO SLOW");

  return pass ? 0 : 1;
}
