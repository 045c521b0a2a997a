// Core scheduler semantics: forking, priorities, preemption, quantum ticks, sleeps, yields.

#include "src/pcr/scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/pcr/runtime.h"

namespace pcr {
namespace {

Config TestConfig() {
  Config config;
  config.quantum = 50 * kUsecPerMsec;
  return config;
}

TEST(SchedulerTest, ForkRunsBodyAndJoinWaits) {
  Runtime rt(TestConfig());
  int value = 0;
  rt.Fork([&] {
    ThreadId child = rt.Fork([&] {
      thisthread::Compute(1000);
      value = 42;
    });
    rt.Join(child);
    EXPECT_EQ(value, 42);
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(value, 42);
  EXPECT_TRUE(rt.quiescent_info().all_threads_done);
}

TEST(SchedulerTest, ComputeAdvancesVirtualTime) {
  Runtime rt(TestConfig());
  Usec observed = -1;
  rt.Fork([&] {
    thisthread::Compute(12'345);
    observed = rt.now();
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  // Dispatch also charges the context-switch cost.
  EXPECT_EQ(observed, 12'345 + rt.config().costs.context_switch);
}

TEST(SchedulerTest, HostContextTakesNoVirtualTime) {
  Runtime rt(TestConfig());
  rt.scheduler().Compute(5000);  // host context: no-op
  EXPECT_EQ(rt.now(), 0);
}

TEST(SchedulerTest, StrictPriorityOrdersExecution) {
  Runtime rt(TestConfig());
  std::vector<int> order;
  for (int priority : {2, 6, 4}) {
    rt.ForkDetached(
        [&order, priority] {
          order.push_back(priority);
          thisthread::Compute(100);
        },
        ForkOptions{.priority = priority});
  }
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(order, (std::vector<int>{6, 4, 2}));
}

TEST(SchedulerTest, HigherPriorityWakeupPreemptsMidCompute) {
  Runtime rt(TestConfig());
  Usec high_ran_at = -1;
  InterruptSource device(rt.scheduler(), "device");
  rt.ForkDetached(
      [&] {
        device.Await();
        high_ran_at = rt.now();
      },
      ForkOptions{.name = "handler", .priority = 6});
  rt.ForkDetached([&] { thisthread::Compute(40 * kUsecPerMsec); },
                  ForkOptions{.name = "cruncher", .priority = 3});
  device.PostAt(7 * kUsecPerMsec, 1);
  rt.RunUntilQuiescent(kUsecPerSec);
  // The handler must run at the interrupt time (plus small dispatch costs), far before the
  // cruncher's 40 ms compute would have finished.
  ASSERT_GE(high_ran_at, 7 * kUsecPerMsec);
  EXPECT_LT(high_ran_at, 8 * kUsecPerMsec);
}

TEST(SchedulerTest, EqualPriorityRoundRobinsOnQuantum) {
  Config config = TestConfig();
  Runtime rt(config);
  // Two CPU-bound threads; each should get alternating ~50 ms slices.
  std::vector<std::pair<int, Usec>> finishes;
  for (int i = 0; i < 2; ++i) {
    rt.ForkDetached(
        [&finishes, &rt, i] {
          thisthread::Compute(75 * kUsecPerMsec);
          finishes.emplace_back(i, rt.now());
        },
        ForkOptions{.priority = 4});
  }
  rt.RunUntilQuiescent(kUsecPerSec);
  ASSERT_EQ(finishes.size(), 2u);
  // With round-robin both finish close together (within one quantum), near 150 ms total.
  Usec gap = finishes[1].second - finishes[0].second;
  EXPECT_LE(gap, config.quantum);
  EXPECT_GE(finishes[1].second, 150 * kUsecPerMsec);
}

TEST(SchedulerTest, SleepWakesOnQuantumGrid) {
  Runtime rt(TestConfig());
  Usec woke_at = -1;
  rt.ForkDetached([&] {
    thisthread::Sleep(kUsecPerMsec);  // 1 ms sleep...
    woke_at = rt.now();
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  // ...fires at the 50 ms tick: "the smallest sleep interval is the remainder of the scheduler
  // quantum" (Section 6.3).
  EXPECT_GE(woke_at, 50 * kUsecPerMsec);
  EXPECT_LT(woke_at, 51 * kUsecPerMsec);
}

TEST(SchedulerTest, SleepSpanningMultipleQuantaWakesAtCeilingTick) {
  Runtime rt(TestConfig());
  Usec woke_at = -1;
  rt.ForkDetached([&] {
    thisthread::Sleep(120 * kUsecPerMsec);
    woke_at = rt.now();
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_GE(woke_at, 150 * kUsecPerMsec);
  EXPECT_LT(woke_at, 151 * kUsecPerMsec);
}

TEST(SchedulerTest, YieldRotatesEqualPriorityImmediately) {
  Runtime rt(TestConfig());
  std::vector<int> order;
  rt.ForkDetached([&] {
    order.push_back(1);
    thisthread::Yield();
    order.push_back(3);
  });
  rt.ForkDetached([&] {
    order.push_back(2);
    thisthread::Yield();
    order.push_back(4);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(SchedulerTest, PlainYieldOfHighestPriorityThreadReschedulesItself) {
  // Section 5.2: with strict priority, a high-priority thread that plain-YIELDs is immediately
  // rechosen; the lower-priority producer never runs.
  Runtime rt(TestConfig());
  bool low_ran = false;
  std::vector<int> high_progress;
  rt.ForkDetached(
      [&] {
        for (int i = 0; i < 5; ++i) {
          thisthread::Yield();
          high_progress.push_back(i);
          EXPECT_FALSE(low_ran);
        }
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached([&] { low_ran = true; }, ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(high_progress.size(), 5u);
  EXPECT_TRUE(low_ran);  // runs only after the high thread finished
}

TEST(SchedulerTest, YieldButNotToMeRunsLowerPriorityThread) {
  Runtime rt(TestConfig());
  bool low_ran_during_yield = false;
  bool low_ran = false;
  rt.ForkDetached(
      [&] {
        thisthread::YieldButNotToMe();
        low_ran_during_yield = low_ran;
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached([&] { low_ran = true; }, ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(low_ran_during_yield);
}

TEST(SchedulerTest, YieldButNotToMePenaltyEndsAtTick) {
  Config config = TestConfig();
  Runtime rt(config);
  // The penalized thread cedes to an infinite lower-priority cruncher, but only until the next
  // tick ends the penalty; then its higher priority preempts again.
  Usec resumed_at = -1;
  rt.ForkDetached(
      [&] {
        thisthread::Compute(5 * kUsecPerMsec);
        thisthread::YieldButNotToMe();
        resumed_at = rt.now();
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached([&] { thisthread::Compute(10 * kUsecPerSec); }, ForkOptions{.priority = 3});
  rt.RunFor(kUsecPerSec);
  ASSERT_GE(resumed_at, 0);
  // Resumes at the first 50 ms tick.
  EXPECT_GE(resumed_at, config.quantum);
  EXPECT_LT(resumed_at, config.quantum + 2 * kUsecPerMsec);
}

TEST(SchedulerTest, DirectedYieldBoostsDoneeOverPriority) {
  Runtime rt(TestConfig());
  std::vector<std::string> order;
  ThreadId low = rt.ForkDetached(
      [&] {
        order.push_back("low");
        thisthread::Compute(100);
      },
      ForkOptions{.priority = 2});
  rt.ForkDetached(
      [&] {
        order.push_back("mid-before");
        rt.scheduler().DirectedYield(low);
        order.push_back("mid-after");
      },
      ForkOptions{.priority = 4});
  rt.RunUntilQuiescent(kUsecPerSec);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "mid-before");
  EXPECT_EQ(order[1], "low");  // boost outranks the mid thread's higher priority
  EXPECT_EQ(order[2], "mid-after");
}

TEST(SchedulerTest, JoinRethrowsUncaughtException) {
  Runtime rt(TestConfig());
  bool caught = false;
  rt.ForkDetached([&] {
    ThreadId child = rt.Fork([] { throw std::runtime_error("boom"); });
    try {
      rt.Join(child);
    } catch (const std::runtime_error& e) {
      caught = std::string(e.what()) == "boom";
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(caught);
}

TEST(SchedulerTest, DoubleJoinIsUsageError) {
  Runtime rt(TestConfig());
  bool second_join_failed = false;
  rt.ForkDetached([&] {
    ThreadId child = rt.Fork([] {});
    rt.Join(child);
    try {
      rt.Join(child);
    } catch (const UsageError&) {
      second_join_failed = true;
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(second_join_failed);
}

TEST(SchedulerTest, JoinAfterDetachIsUsageError) {
  Runtime rt(TestConfig());
  bool failed = false;
  rt.ForkDetached([&] {
    ThreadId child = rt.ForkDetached([] {});
    try {
      rt.Join(child);
    } catch (const UsageError&) {
      failed = true;
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(failed);
}

TEST(SchedulerTest, ForkFailureErrorModeThrows) {
  Config config = TestConfig();
  config.max_threads = 3;
  config.fork_failure = ForkFailureMode::kError;
  Runtime rt(config);
  bool fork_failed = false;
  rt.ForkDetached([&] {
    std::vector<ThreadId> children;
    try {
      for (int i = 0; i < 10; ++i) {
        children.push_back(rt.Fork([] { thisthread::Sleep(10 * kUsecPerMsec); }));
      }
    } catch (const ForkFailed&) {
      fork_failed = true;
    }
    for (ThreadId child : children) {
      rt.Join(child);
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_TRUE(fork_failed);
}

TEST(SchedulerTest, ForkFailureWaitModeBlocksUntilResourcesFree) {
  Config config = TestConfig();
  config.max_threads = 3;  // parent + 2 children live at once
  config.fork_failure = ForkFailureMode::kWait;
  Runtime rt(config);
  int completed = 0;
  rt.ForkDetached([&] {
    std::vector<ThreadId> children;
    for (int i = 0; i < 6; ++i) {
      children.push_back(rt.Fork([&] {
        thisthread::Compute(kUsecPerMsec);
        ++completed;
      }));
    }
    for (ThreadId child : children) {
      rt.Join(child);
    }
  });
  EXPECT_EQ(rt.RunUntilQuiescent(10 * kUsecPerSec), RunStatus::kQuiescent);
  EXPECT_EQ(completed, 6);
}

TEST(SchedulerTest, QuiescentInfoReportsBlockedThreads) {
  Runtime rt(TestConfig());
  MonitorLock lock(rt.scheduler(), "m");
  Condition never(lock, "never");  // no timeout: a lost-notify bug would hang here
  rt.ForkDetached([&] {
    MonitorGuard guard(lock);
    never.Wait();
  });
  EXPECT_EQ(rt.RunUntilQuiescent(kUsecPerSec), RunStatus::kQuiescent);
  QuiescentInfo info = rt.quiescent_info();
  EXPECT_FALSE(info.all_threads_done);
  ASSERT_EQ(info.blocked_threads.size(), 1u);
  rt.Shutdown();  // unwind the stuck thread before `lock`/`never` go away
}

TEST(SchedulerTest, ShutdownUnwindsBlockedThreadsCleanly) {
  Runtime rt(TestConfig());
  MonitorLock lock(rt.scheduler(), "m");
  Condition cv(lock, "cv");
  bool cleaned_up = false;
  rt.ForkDetached([&] {
    struct Sentinel {
      bool* flag;
      ~Sentinel() { *flag = true; }
    } sentinel{&cleaned_up};
    MonitorGuard guard(lock);
    cv.Wait();
  });
  rt.RunFor(10 * kUsecPerMsec);
  EXPECT_FALSE(cleaned_up);
  rt.Shutdown();
  EXPECT_TRUE(cleaned_up);  // destructors on the fiber stack ran
}

TEST(SchedulerTest, RunForStopsAtDeadlineMidCompute) {
  Runtime rt(TestConfig());
  rt.ForkDetached([&] { thisthread::Compute(kUsecPerSec); });
  EXPECT_EQ(rt.RunFor(100 * kUsecPerMsec), RunStatus::kDeadline);
  EXPECT_EQ(rt.now(), 100 * kUsecPerMsec);
  // Resuming continues the same compute.
  EXPECT_EQ(rt.RunFor(2 * kUsecPerSec), RunStatus::kQuiescent);
}

TEST(SchedulerTest, SetPriorityTakesEffectImmediately) {
  Runtime rt(TestConfig());
  std::vector<std::string> order;
  rt.ForkDetached(
      [&] {
        order.push_back("a-high");
        thisthread::SetPriority(2);
        order.push_back("a-low");
      },
      ForkOptions{.priority = 6});
  rt.ForkDetached([&] { order.push_back("b"); }, ForkOptions{.priority = 4});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(order, (std::vector<std::string>{"a-high", "b", "a-low"}));
}

TEST(SchedulerTest, InterruptAwaitForTimesOut) {
  Runtime rt(TestConfig());
  InterruptSource source(rt.scheduler(), "net");
  bool got = true;
  rt.ForkDetached([&] {
    uint64_t payload = 0;
    got = source.AwaitFor(10 * kUsecPerMsec, &payload);
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_FALSE(got);
}

TEST(SchedulerTest, InterruptDeliversPayloadsInOrder) {
  Runtime rt(TestConfig());
  InterruptSource source(rt.scheduler(), "keyboard");
  std::vector<uint64_t> received;
  rt.ForkDetached([&] {
    for (int i = 0; i < 3; ++i) {
      received.push_back(source.Await());
    }
  });
  source.PostAt(5 * kUsecPerMsec, 11);
  source.PostAt(6 * kUsecPerMsec, 22);
  source.PostAt(90 * kUsecPerMsec, 33);
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(received, (std::vector<uint64_t>{11, 22, 33}));
}

TEST(SchedulerTest, MultiprocessorRunsThreadsInParallelVirtualTime) {
  Config config = TestConfig();
  config.processors = 2;
  Runtime rt(config);
  std::vector<Usec> finish_times;
  for (int i = 0; i < 2; ++i) {
    rt.ForkDetached([&] {
      thisthread::Compute(100 * kUsecPerMsec);
      finish_times.push_back(rt.now());
    });
  }
  rt.RunUntilQuiescent(kUsecPerSec);
  ASSERT_EQ(finish_times.size(), 2u);
  // On two processors both 100 ms computations overlap: both finish near 100 ms, not 200 ms.
  EXPECT_LT(finish_times[0], 110 * kUsecPerMsec);
  EXPECT_LT(finish_times[1], 110 * kUsecPerMsec);
}

TEST(SchedulerTest, RandomReadyThreadSeedsDeterministically) {
  auto run_once = [] {
    Config config;
    config.seed = 99;
    Runtime rt(config);
    std::vector<ThreadId> picks;
    for (int i = 0; i < 5; ++i) {
      rt.ForkDetached([] { thisthread::Sleep(kUsecPerSec); });
    }
    rt.ForkDetached(
        [&] {
          for (int i = 0; i < 4; ++i) {
            thisthread::Compute(60 * kUsecPerMsec);
            picks.push_back(rt.scheduler().RandomReadyThread());
          }
        },
        ForkOptions{.priority = 6});
    rt.RunFor(kUsecPerSec);
    return picks;
  };
  EXPECT_EQ(run_once(), run_once());
}

// Compute boundaries. A Compute advances the clock inline only when the loop would have done
// nothing else before resuming the same thread; these pin the cases where it must not. Every
// expected time follows from the paper's rules and the default cost model: a dispatch charges
// the incoming thread kSwitch = 30 us, ticks fall every quantum (Q = 50 ms).
constexpr Usec kSwitch = 30;
constexpr Usec kQ = 50 * kUsecPerMsec;

// A compute that ends exactly on a tick still gets the tick: the equal-priority ready thread
// rotates in at Q, and the computing thread resumes only after it.
TEST(ComputeBoundaryTest, ComputeEndingOnTickRotatesEqualPriority) {
  Runtime rt(TestConfig());
  Usec a_resumed = -1;
  Usec b_started = -1;
  rt.ForkDetached([&] {
    thisthread::Compute(kQ - kSwitch);  // dispatched at 0, runs from kSwitch: ends at Q
    a_resumed = rt.now();
  });
  rt.ForkDetached([&] { b_started = rt.now(); });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(b_started, kQ + kSwitch);       // rotated in at the tick
  EXPECT_EQ(a_resumed, kQ + 2 * kSwitch);   // re-dispatched when b exits
}

// An interrupt the running thread posts inside its own compute window is delivered at its
// time, and the higher-priority handler preempts there instead of when the compute ends.
TEST(ComputeBoundaryTest, SelfPostedInterruptPreemptsInsideCompute) {
  Runtime rt(TestConfig());
  InterruptSource device(rt.scheduler(), "device");
  Usec handled = -1;
  Usec cruncher_done = -1;
  rt.ForkDetached(
      [&] {
        device.Await();  // blocks at kSwitch
        handled = rt.now();
      },
      ForkOptions{.name = "handler", .priority = 6});
  rt.ForkDetached(
      [&] {
        // Dispatched at kSwitch, runs from 2 * kSwitch = 60.
        device.PostAt(rt.now() + 5 * kUsecPerMsec, 1);  // at 5060
        thisthread::Compute(20 * kUsecPerMsec);          // 60 -> 5060, then 15000 left
        cruncher_done = rt.now();
      },
      ForkOptions{.name = "cruncher", .priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  const Usec interrupt_at = 2 * kSwitch + 5 * kUsecPerMsec;
  EXPECT_EQ(handled, interrupt_at + kSwitch + rt.config().costs.interrupt_dispatch);
  EXPECT_EQ(cruncher_done, handled + kSwitch + 15 * kUsecPerMsec);
}

// Readying a higher-priority thread with a primitive that charges nothing leaves the readied
// thread waiting for the next preemption point: the Compute that follows. It must preempt at
// the Compute's first instant, not after the compute.
Config ZeroPrimitiveCosts() {
  Config config = TestConfig();
  config.costs.fork = 0;
  config.costs.monitor_enter = 0;
  config.costs.monitor_exit = 0;
  config.costs.cv_wait = 0;
  config.costs.cv_notify = 0;
  return config;
}

TEST(ComputeBoundaryTest, ForkOfHigherPriorityPreemptsAtNextCompute) {
  Runtime rt(ZeroPrimitiveCosts());
  Usec high_ran = -1;
  Usec low_done = -1;
  rt.ForkDetached(
      [&] {
        thisthread::Compute(1000);  // runs from kSwitch: 30 -> 1030
        rt.ForkDetached([&] { high_ran = rt.now(); }, ForkOptions{.priority = 5});
        thisthread::Compute(5000);
        low_done = rt.now();
      },
      ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(high_ran, kSwitch + 1000 + kSwitch);
  EXPECT_EQ(low_done, high_ran + kSwitch + 5000);
}

TEST(ComputeBoundaryTest, NotifyOfHigherPriorityPreemptsAtNextCompute) {
  Runtime rt(ZeroPrimitiveCosts());
  MonitorLock lock(rt.scheduler(), "lock");
  Condition cv(lock, "cv", -1);
  bool signalled = false;
  Usec waiter_woke = -1;
  Usec notifier_done = -1;
  rt.ForkDetached(
      [&] {
        MonitorGuard guard(lock);
        while (!signalled) {
          cv.Wait();  // blocks at kSwitch
        }
        waiter_woke = rt.now();
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached(
      [&] {
        thisthread::Compute(1000);  // runs from 2 * kSwitch: 60 -> 1060
        {
          MonitorGuard guard(lock);
          signalled = true;
          cv.Notify();
        }
        thisthread::Compute(5000);
        notifier_done = rt.now();
      },
      ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(waiter_woke, 2 * kSwitch + 1000 + kSwitch);
  EXPECT_EQ(notifier_done, waiter_woke + kSwitch + 5000);
  rt.Shutdown();  // before the monitor and CV above go out of scope
}

// Two processors whose computes end at the same instant resume in processor order, even when
// the thread on the higher-numbered processor is the one that just called Compute.
TEST(ComputeBoundaryTest, SimultaneousCompletionsResumeInProcessorOrder) {
  Config config = TestConfig();
  config.processors = 2;
  Runtime rt(config);
  std::vector<std::pair<char, Usec>> log;
  rt.ForkDetached([&] {  // processor 0, runs from kSwitch
    thisthread::Compute(2000);
    log.emplace_back('a', rt.now());
  });
  rt.ForkDetached([&] {  // processor 1, runs from kSwitch
    thisthread::Compute(1000);
    thisthread::Compute(1000);  // ends with a's compute
    log.emplace_back('b', rt.now());
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  const Usec end = kSwitch + 2000;
  EXPECT_EQ(log, (std::vector<std::pair<char, Usec>>{{'a', end}, {'b', end}}));
}

// On two processors, a wakeup that outranks only the other processor's thread preempts that
// processor at the waker's next Compute, even though the waker itself keeps running.
TEST(ComputeBoundaryTest, WakeupOutrankingOtherProcessorPreemptsItAtNextCompute) {
  Config config = ZeroPrimitiveCosts();
  config.processors = 2;
  Runtime rt(config);
  Usec high_done = -1;
  Usec woken_ran = -1;
  Usec low_done = -1;
  rt.ForkDetached(  // processor 0, runs from kSwitch
      [&] {
        thisthread::Compute(1000);
        rt.ForkDetached([&] { woken_ran = rt.now(); }, ForkOptions{.priority = 4});
        thisthread::Compute(5000);
        high_done = rt.now();
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached(  // processor 1, runs from kSwitch; preempted at 1030 with 19000 left
      [&] {
        thisthread::Compute(20 * kUsecPerMsec);
        low_done = rt.now();
      },
      ForkOptions{.priority = 2});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(high_done, kSwitch + 1000 + 5000);
  EXPECT_EQ(woken_ran, kSwitch + 1000 + kSwitch);
  EXPECT_EQ(low_done, woken_ran + kSwitch + 19000);
}

// A compute split across RunFor calls stops at each call's own deadline and completes at the
// instant its total length puts it.
TEST(ComputeBoundaryTest, ComputeSplitAcrossRunForDeadlines) {
  Runtime rt(TestConfig());
  std::vector<Usec> done;
  rt.ForkDetached([&] {
    for (int i = 0; i < 3; ++i) {
      thisthread::Compute(i == 0 ? 30 * kUsecPerMsec : 10 * kUsecPerMsec);
      done.push_back(rt.now());
    }
  });
  EXPECT_EQ(rt.RunFor(10 * kUsecPerMsec), RunStatus::kDeadline);
  EXPECT_EQ(rt.now(), 10 * kUsecPerMsec);
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(rt.RunFor(35 * kUsecPerMsec), RunStatus::kDeadline);
  EXPECT_EQ(rt.now(), 45 * kUsecPerMsec);  // the third compute (to 50030) is cut here
  EXPECT_EQ(done, (std::vector<Usec>{kSwitch + 30 * kUsecPerMsec, kSwitch + 40 * kUsecPerMsec}));
  EXPECT_EQ(rt.RunFor(100 * kUsecPerMsec), RunStatus::kQuiescent);
  EXPECT_EQ(done.back(), kSwitch + 50 * kUsecPerMsec);
}

// Computes that cross no tick, deadline, interrupt or preemption need no trip through the run
// loop: one dispatch round trip (2 switches) carries 1000 of them.
TEST(ComputeBoundaryTest, ThousandComputesInOneQuantumCostOneDispatch) {
  Runtime rt(TestConfig());
  rt.ForkDetached([] {
    for (int i = 0; i < 1000; ++i) {
      thisthread::Compute(1);
    }
  });
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(rt.now(), kSwitch + 1000);
  EXPECT_LE(rt.scheduler().fiber_switches(), 4);
}

// The outrank test inside the inline-compute check. A ready thread blocks inlining only when
// its *effective* priority beats the weakest running thread's: YieldButNotToMe penalties,
// directed-yield boosts and priority inheritance all move effective priority away from the
// queue level. Every resume of a fiber is 2 fiber switches, so a compute that goes through the
// run loop instead of inline shows up as +2.
constexpr int kLoop = 100;  // computes of 100 us each; inline, they cost no switch at all

// A penalized higher-priority thread sits ready while the lower-priority thread it ceded to
// computes: effective priority 0 does not outrank, so all 100 computes run inline.
TEST(OutrankCheckTest, PenalizedReadyThreadDoesNotInterruptLowerCompute) {
  Runtime rt(TestConfig());
  Usec low_started = -1;
  Usec low_done = -1;
  Usec high_resumed = -1;
  rt.ForkDetached(
      [&] {
        thisthread::YieldButNotToMe();  // yield cost 5 inline: 30 -> 35, then cedes
        high_resumed = rt.now();
      },
      ForkOptions{.priority = 5});
  rt.ForkDetached(
      [&] {
        low_started = rt.now();
        for (int i = 0; i < kLoop; ++i) {
          thisthread::Compute(100);
        }
        low_done = rt.now();
      },
      ForkOptions{.priority = 3});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(low_started, kSwitch + 5 + kSwitch);
  EXPECT_EQ(low_done, low_started + kLoop * 100);
  EXPECT_EQ(high_resumed, low_done + kSwitch);
  // Resumes: high starts, low starts (and runs to its end), high resumes.
  EXPECT_EQ(rt.scheduler().fiber_switches(), 3 * 2);
}

// A penalized *running* thread has effective priority 0, so a lower-priority child it forks
// outranks it: the fork's charge is a preemption point and the child runs first. The penalized
// thread, ready at level 5 while the child computes, does not interrupt the child in turn.
TEST(OutrankCheckTest, ChildOutranksPenalizedParentAtForkCharge) {
  Runtime rt(TestConfig());
  Usec child_started = -1;
  Usec child_done = -1;
  Usec fork_returned = -1;
  rt.ForkDetached(
      [&] {
        // Alone, so it is re-chosen at once (no dispatch charge: it was the last to run): 35.
        thisthread::YieldButNotToMe();
        rt.ForkDetached(
            [&] {
              child_started = rt.now();
              for (int i = 0; i < kLoop / 10; ++i) {
                thisthread::Compute(100);
              }
              child_done = rt.now();
            },
            ForkOptions{.priority = 3});
        fork_returned = rt.now();
      },
      ForkOptions{.priority = 5});
  rt.RunUntilQuiescent(kUsecPerSec);
  const Usec fork_cost = rt.config().costs.fork;
  EXPECT_EQ(child_started, kSwitch + 5 + kSwitch);  // preempted at the fork charge's start
  EXPECT_EQ(child_done, child_started + (kLoop / 10) * 100);
  EXPECT_EQ(fork_returned, child_done + kSwitch + fork_cost);
  // Resumes: parent starts, parent re-chosen after the yield, child, parent after the fork.
  EXPECT_EQ(rt.scheduler().fiber_switches(), 4 * 2);
}

// With priority inheritance on, a low thread holding a monitor a mid thread wants inherits the
// mid priority while it sits ready; a high thread computing meanwhile is not outranked.
TEST(OutrankCheckTest, InheritingReadyThreadBelowRunningOneDoesNotInterrupt) {
  Config config = ZeroPrimitiveCosts();
  config.priority_inheritance = true;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "lock");
  Usec high_started = -1;
  Usec high_done = -1;
  Usec low_done = -1;
  Usec mid_locked = -1;
  rt.ForkDetached(
      [&] {
        thisthread::Sleep(2 * kQ);  // dispatched first: blocks at kSwitch until 2Q
        high_started = rt.now();
        for (int i = 0; i < kLoop; ++i) {
          thisthread::Compute(100);
        }
        high_done = rt.now();
      },
      ForkOptions{.name = "high", .priority = 7});
  rt.ForkDetached(
      [&] {
        thisthread::Sleep(kQ);  // blocks at 2 * kSwitch until Q
        MonitorGuard guard(lock);  // held by low: low inherits 5, mid blocks
        mid_locked = rt.now();
      },
      ForkOptions{.name = "mid", .priority = 5});
  rt.ForkDetached(
      [&] {
        MonitorGuard guard(lock);
        // Runs from 3 * kSwitch; rotated out at Q (mid wakes) and at 2Q (high wakes).
        thisthread::Compute(3 * kQ);
        low_done = rt.now();
      },
      ForkOptions{.name = "low", .priority = 2});
  rt.RunUntilQuiescent(kUsecPerSec);
  // Low computes from 3k to Q; from Q+2k to 2Q (mid's dispatch and block, then low's own
  // switch charge); and the rest after high's loop and one more switch charge.
  EXPECT_EQ(high_started, 2 * kQ + kSwitch);
  EXPECT_EQ(high_done, high_started + kLoop * 100);
  const Usec low_left = 3 * kQ - (kQ - 3 * kSwitch) - (kQ - 2 * kSwitch);
  EXPECT_EQ(low_done, high_done + kSwitch + low_left);
  EXPECT_EQ(mid_locked, low_done + kSwitch);
  // Resumes: high, mid, low start; mid wakes and blocks; high wakes and runs its loop;
  // low finishes its compute; mid takes the lock.
  EXPECT_EQ(rt.scheduler().fiber_switches(), 7 * 2);
  rt.Shutdown();  // before the monitor above goes out of scope
}

// The other direction: a thread running at an inherited priority forks a child that outranks
// even the inherited level, so its next compute is a preemption point.
TEST(OutrankCheckTest, ForkedChildOutranksInheritingRunningThread) {
  Config config = ZeroPrimitiveCosts();
  config.priority_inheritance = true;
  Runtime rt(config);
  MonitorLock lock(rt.scheduler(), "lock");
  Usec child_ran = -1;
  Usec low_done = -1;
  Usec mid_locked = -1;
  rt.ForkDetached(
      [&] {
        thisthread::Sleep(kQ);  // blocks at kSwitch until Q
        MonitorGuard guard(lock);  // held by low: low inherits 5, mid blocks
        mid_locked = rt.now();
      },
      ForkOptions{.name = "mid", .priority = 5});
  rt.ForkDetached(
      [&] {
        MonitorGuard guard(lock);
        thisthread::Compute(kQ);  // from 2k; rotated out at Q with 2k left
        rt.ForkDetached([&] { child_ran = rt.now(); }, ForkOptions{.priority = 6});
        thisthread::Compute(5000);  // the child (6) outranks low's inherited 5: preempted
        low_done = rt.now();
      },
      ForkOptions{.name = "low", .priority = 2});
  rt.RunUntilQuiescent(kUsecPerSec);
  // Mid runs at Q+k and blocks; low resumes after a switch charge and 2k of compute.
  const Usec forked_at = kQ + kSwitch + kSwitch + 2 * kSwitch;
  EXPECT_EQ(child_ran, forked_at + kSwitch);
  EXPECT_EQ(low_done, child_ran + kSwitch + 5000);
  EXPECT_EQ(mid_locked, low_done + kSwitch);
  // Resumes: mid, low start; mid wakes and blocks; low finishes its first compute; the child;
  // low finishes; mid takes the lock.
  EXPECT_EQ(rt.scheduler().fiber_switches(), 7 * 2);
  rt.Shutdown();  // before the monitor above goes out of scope
}

// A directed-yield donee runs boosted above every level, so the yielder, ready at a higher
// base level, does not interrupt its computes.
TEST(OutrankCheckTest, DirectedYieldDoneeComputesInlineAboveReadyYielder) {
  Runtime rt(TestConfig());
  Usec donee_started = -1;
  Usec donee_done = -1;
  Usec yielder_resumed = -1;
  ThreadId donee = rt.ForkDetached(
      [&] {
        donee_started = rt.now();
        for (int i = 0; i < kLoop; ++i) {
          thisthread::Compute(100);
        }
        donee_done = rt.now();
      },
      ForkOptions{.priority = 2});
  rt.ForkDetached(
      [&] {
        rt.scheduler().DirectedYield(donee);  // yield cost 5 inline: 30 -> 35
        yielder_resumed = rt.now();
      },
      ForkOptions{.priority = 4});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(donee_started, kSwitch + 5 + kSwitch);
  EXPECT_EQ(donee_done, donee_started + kLoop * 100);
  EXPECT_EQ(yielder_resumed, donee_done + kSwitch);
  EXPECT_EQ(rt.scheduler().fiber_switches(), 3 * 2);
}

// Fair share: the thread with the least CPU per unit of priority runs, and wakeups do not
// preempt. A ready thread of higher priority still counts as outranking, so each compute goes
// through the run loop (which then resumes the same thread at the same instant as inline).
TEST(OutrankCheckTest, FairShareHigherPriorityReadyThreadSendsComputesThroughRunLoop) {
  Config config = TestConfig();
  config.scheduling = SchedulingPolicy::kFairShare;
  Runtime rt(config);
  Usec low_started = -1;
  Usec low_done = -1;
  Usec high_resumed = -1;
  constexpr int kComputes = 5;
  rt.ForkDetached(
      [&] {
        low_started = rt.now();
        for (int i = 0; i < kComputes; ++i) {
          thisthread::Compute(1000);
        }
        low_done = rt.now();
      },
      ForkOptions{.priority = 3});
  rt.ForkDetached(
      [&] {
        // Wins the tie at zero CPU (scanned from the top level); its 40 ms of CPU then puts it
        // behind the low thread, which runs after the yield while this one sits ready.
        thisthread::Compute(40 * kUsecPerMsec);
        thisthread::Yield();
        high_resumed = rt.now();
      },
      ForkOptions{.priority = 5});
  rt.RunUntilQuiescent(kUsecPerSec);
  EXPECT_EQ(low_started, kSwitch + 40 * kUsecPerMsec + 5 + kSwitch);
  EXPECT_EQ(low_done, low_started + kComputes * 1000);
  EXPECT_EQ(high_resumed, low_done + kSwitch);
  // Resumes: high, low start, low after each of its computes, high after the yield.
  EXPECT_EQ(rt.scheduler().fiber_switches(), (1 + 1 + kComputes + 1) * 2);
}

}  // namespace
}  // namespace pcr
