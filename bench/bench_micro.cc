// F10: real (wall-clock) micro-costs of the runtime substrate, via google-benchmark.
//
// Context for the paper's numbers: "The scheduler takes less than 50 microseconds to switch
// between threads on a Sparcstation-2" (Section 2), and fork overhead is "significant" relative
// to very short callbacks (Section 4.5). These benchmarks measure our fiber substrate's actual
// host-machine costs — they should sit comfortably below those 1993 numbers.

#include <benchmark/benchmark.h>

#include <memory>

#include "src/explore/hash.h"
#include "src/pcr/condition.h"
#include "src/pcr/fiber.h"
#include "src/pcr/monitor.h"
#include "src/pcr/runtime.h"
#include "src/world/scenarios.h"

namespace {

pcr::Config QuietConfig() {
  pcr::Config config;
  config.trace_events = false;
  return config;
}

// Raw ucontext switch: one Resume + one Suspend per iteration.
void BM_FiberPingPong(benchmark::State& state) {
  pcr::Fiber fiber(
      [] {
        while (true) {
          pcr::Fiber::Current()->Suspend();
        }
      },
      16 * 1024);
  for (auto _ : state) {
    fiber.Resume();
  }
}
BENCHMARK(BM_FiberPingPong);

void BM_FiberCreateRunDestroy(benchmark::State& state) {
  for (auto _ : state) {
    pcr::Fiber fiber([] {}, 16 * 1024);
    fiber.Resume();
    benchmark::DoNotOptimize(fiber.finished());
  }
}
BENCHMARK(BM_FiberCreateRunDestroy);

// One simulated FORK+JOIN pair, including scheduling.
void BM_ForkJoin(benchmark::State& state) {
  for (auto _ : state) {
    pcr::Runtime rt(QuietConfig());
    rt.ForkDetached([&rt] {
      for (int i = 0; i < 100; ++i) {
        pcr::ThreadId child = rt.Fork([] {});
        rt.Join(child);
      }
    });
    rt.RunUntilQuiescent(pcr::kUsecPerSec);
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_ForkJoin);

// Uncontended monitor enter/exit.
void BM_MonitorEnterExit(benchmark::State& state) {
  for (auto _ : state) {
    pcr::Runtime rt(QuietConfig());
    pcr::MonitorLock lock(rt.scheduler(), "m");
    rt.ForkDetached([&lock] {
      for (int i = 0; i < 1000; ++i) {
        pcr::MonitorGuard guard(lock);
      }
    });
    rt.RunUntilQuiescent(pcr::kUsecPerSec);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MonitorEnterExit);

// A NOTIFY that wakes a waiter, including its re-acquisition of the monitor.
void BM_NotifyWakeRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    pcr::Runtime rt(QuietConfig());
    pcr::MonitorLock lock(rt.scheduler(), "m");
    pcr::Condition cv(lock, "cv");
    int turns = 0;
    constexpr int kRounds = 200;
    rt.ForkDetached([&] {
      pcr::MonitorGuard guard(lock);
      while (turns < kRounds) {
        cv.Wait();
        ++turns;
      }
    });
    rt.ForkDetached([&] {
      for (int i = 0; i < kRounds; ++i) {
        pcr::MonitorGuard guard(lock);
        cv.Notify();
      }
    });
    rt.RunUntilQuiescent(10 * pcr::kUsecPerSec);
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK(BM_NotifyWakeRoundTrip);

// Simulator throughput: virtual context switches executed per wall-clock second for a pair of
// round-robin CPU hogs.
void BM_SimulatedSwitchThroughput(benchmark::State& state) {
  for (auto _ : state) {
    pcr::Runtime rt(QuietConfig());
    for (int i = 0; i < 2; ++i) {
      rt.ForkDetached([] {
        for (int j = 0; j < 500; ++j) {
          pcr::thisthread::Compute(pcr::kUsecPerMsec);
          pcr::thisthread::Yield();
        }
      });
    }
    rt.RunUntilQuiescent(60 * pcr::kUsecPerSec);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatedSwitchThroughput);

// Simulator-side cost of fingerprinting a run: TraceHash over a recorded Cedar trace (5 s of
// the everyday mix at seed 1), reported as host ns per event. Replay checks, explorer
// fingerprints, campaign coverage and the service world's determinism witness all pay it.
std::unique_ptr<trace::Tracer> RecordCedarTrace() {
  auto tracer = std::make_unique<trace::Tracer>();
  world::ScenarioOptions options;
  options.duration = 5 * pcr::kUsecPerSec;
  options.inspect = [&tracer](pcr::Runtime& rt) {
    for (const trace::Event& e : rt.tracer().view()) {
      tracer->Record(e);
    }
  };
  world::RunScenario(world::Scenario::kCedarEveryday, options);
  return tracer;
}

void BM_TraceHash(benchmark::State& state) {
  static const std::unique_ptr<trace::Tracer> tracer = RecordCedarTrace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(explore::TraceHash(*tracer));
  }
  // Seconds per event, printed with an SI prefix (e.g. "15.2n" is 15.2 ns).
  state.counters["time_per_event"] = benchmark::Counter(
      static_cast<double>(tracer->size()),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_TraceHash)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
