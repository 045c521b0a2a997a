// Checkpoint-and-branch equivalence: ExploreOptions::checkpoint changes how schedules are
// executed (snapshot at the group's divergence points, replay only the suffix), never what
// they compute. Every scenario must produce byte-identical results — trace hashes, failure
// lists, repro strings, schedule counts, pruned counts — with checkpointing on and off, and
// the checkpointed explorer must stay worker-count invariant. In builds where
// pcr::Checkpoint::Supported() is false (ucontext fibers, sanitizers) the checkpoint option
// silently falls back to from-zero execution, so these tests still pass — they just compare
// the fallback against itself.

#include <string>

#include <gtest/gtest.h>

#include "examples/example_scenarios.h"
#include "src/explore/explorer.h"
#include "src/explore/scenarios.h"
#include "src/pcr/checkpoint.h"
#include "src/pcr/runtime.h"

namespace {

using explore::ExploreOptions;
using explore::ExploreResult;
using explore::Explorer;

// Everything the explorer reports must agree field-for-field, including how many schedules
// were pruned by state-hash dedup — both modes must prune exactly the same cells.
void ExpectSameResult(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.schedules_run, b.schedules_run);
  EXPECT_EQ(a.distinct_schedules, b.distinct_schedules);
  EXPECT_EQ(a.baseline.trace_hash, b.baseline.trace_hash);
  EXPECT_EQ(a.baseline.failed, b.baseline.failed);
  EXPECT_EQ(a.baseline.repro, b.baseline.repro);
  EXPECT_EQ(a.profile.pruned_schedules, b.profile.pruned_schedules);
  ASSERT_EQ(a.failures.size(), b.failures.size());
  for (size_t i = 0; i < a.failures.size(); ++i) {
    EXPECT_EQ(a.failures[i].schedule_index, b.failures[i].schedule_index) << "failure " << i;
    EXPECT_EQ(a.failures[i].trace_hash, b.failures[i].trace_hash) << "failure " << i;
    EXPECT_EQ(a.failures[i].repro, b.failures[i].repro) << "failure " << i;
    EXPECT_EQ(a.failures[i].failures, b.failures[i].failures) << "failure " << i;
  }
}

ExploreResult ExploreScenario(const explore::BugScenario& scenario, bool checkpoint,
                              int workers = 1, int budget = -1) {
  ExploreOptions options = scenario.options;
  options.checkpoint = checkpoint;
  options.workers = workers;
  if (budget > 0) {
    options.budget = budget;
  }
  Explorer explorer(options);
  return explorer.Explore(scenario.body);
}

TEST(CheckpointEquivalenceTest, EveryCannedScenarioMatchesFromZero) {
  for (const char* name : {"buggy_monitor", "good_monitor", "missing_notify", "weakmem_race"}) {
    const explore::BugScenario* scenario = explore::FindScenario(name);
    ASSERT_NE(scenario, nullptr) << name;
    ExploreResult with = ExploreScenario(*scenario, /*checkpoint=*/true);
    ExploreResult without = ExploreScenario(*scenario, /*checkpoint=*/false);
    SCOPED_TRACE(name);
    ExpectSameResult(with, without);
    EXPECT_EQ(scenario->expect_bug, !with.failures.empty()) << name;
  }
}

// The deep geometry tier (budget >= 1024: more branches and leaves per checkpoint) must also
// be equivalent — it exercises repeated leaf restores and the abandoned-branch epilogue.
TEST(CheckpointEquivalenceTest, DeepGeometryMatchesFromZero) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  ExploreResult with = ExploreScenario(*scenario, /*checkpoint=*/true, 1, 1100);
  ExploreResult without = ExploreScenario(*scenario, /*checkpoint=*/false, 1, 1100);
  ExpectSameResult(with, without);
}

// Example workloads register with checkpoint_safe=false (heap state a restore cannot rewind),
// which must force options.checkpoint off at registration — exploring them with the registered
// options has to equal an explicit from-zero run, and must not crash.
TEST(CheckpointEquivalenceTest, ExampleBodiesHonorCheckpointSafety) {
  examples::RegisterExampleExploreScenarios();
  int seen = 0;
  for (const explore::BugScenario& scenario : explore::Scenarios()) {
    if (scenario.name.rfind("example_", 0) != 0) {
      continue;
    }
    ++seen;
    EXPECT_FALSE(scenario.options.checkpoint) << scenario.name;
    ExploreResult as_registered = ExploreScenario(scenario, scenario.options.checkpoint);
    ExploreResult from_zero = ExploreScenario(scenario, /*checkpoint=*/false);
    SCOPED_TRACE(scenario.name);
    ExpectSameResult(as_registered, from_zero);
  }
  EXPECT_EQ(seen, 5) << "all example workloads should be registered";
}

TEST(CheckpointEquivalenceTest, WorkerCountInvariantWithCheckpointingOn) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  ExploreResult one = ExploreScenario(*scenario, /*checkpoint=*/true, 1);
  ExploreResult four = ExploreScenario(*scenario, /*checkpoint=*/true, 4);
  ASSERT_FALSE(one.failures.empty()) << "scenario should find its injected bug";
  ExpectSameResult(one, four);
}

TEST(CheckpointEquivalenceTest, FailuresFromCheckpointedRunsReplay) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  ExploreOptions options = scenario->options;
  options.checkpoint = true;
  Explorer explorer(options);
  ExploreResult result = explorer.Explore(scenario->body);
  ASSERT_FALSE(result.failures.empty());
  // Repros are recorded decision streams; they replay from zero regardless of how the
  // recording run was executed.
  explore::ScheduleOutcome again = explorer.Replay(result.failures.front().repro,
                                                   scenario->body);
  EXPECT_TRUE(again.failed);
  EXPECT_EQ(again.trace_hash, result.failures.front().trace_hash);
}

// The run loop's deadline is checkpointed state: a snapshot taken inside a 20 ms RunFor must
// come back with that deadline even when the restore happens while the body's later RunFor
// (deadline 50 ms) is current. Both workers keep slices that straddle 20 ms with no tick in
// between, so a stale deadline would let a compute run past the first RunFor's end.
void DeadlineSplitBody(pcr::Runtime& rt, explore::TestContext& ctx) {
  for (int w = 0; w < 2; ++w) {
    rt.Fork([] {
      for (int i = 0; i < 12; ++i) {
        pcr::thisthread::Compute(3 * pcr::kUsecPerMsec + 70);
        pcr::thisthread::Yield();  // an equal-priority tie: a perturber decision point
      }
    });
  }
  rt.RunFor(20 * pcr::kUsecPerMsec);
  ctx.Check(rt.now() == 20 * pcr::kUsecPerMsec, "first RunFor overran its deadline");
  rt.RunFor(30 * pcr::kUsecPerMsec);
  ctx.Check(rt.now() == 50 * pcr::kUsecPerMsec, "second RunFor overran its deadline");
  rt.Shutdown();
}

TEST(CheckpointEquivalenceTest, RestoreUnderLaterRunForDeadlineMatchesFromZero) {
  ExploreOptions options;
  options.scenario_name = "deadline_split";
  options.budget = 64;
  options.workers = 1;
  Explorer with_explorer(options);
  ExploreResult with = with_explorer.Explore(DeadlineSplitBody);
  options.checkpoint = false;
  Explorer without_explorer(options);
  ExploreResult without = without_explorer.Explore(DeadlineSplitBody);
  ExpectSameResult(with, without);
  EXPECT_TRUE(with.failures.empty());
  EXPECT_GT(with.distinct_schedules, 1);
  if (pcr::Checkpoint::Supported()) {
    EXPECT_GT(with.profile.checkpoint_resumes, 0);
  }
}

TEST(CheckpointProfileTest, CountersReportCheckpointWork) {
  const explore::BugScenario* scenario = explore::FindScenario("buggy_monitor");
  ASSERT_NE(scenario, nullptr);
  ExploreResult with = ExploreScenario(*scenario, /*checkpoint=*/true);
  ExploreResult without = ExploreScenario(*scenario, /*checkpoint=*/false);
  if (pcr::Checkpoint::Supported()) {
    EXPECT_GT(with.profile.checkpoint_saves, 0);
    EXPECT_GT(with.profile.checkpoint_resumes, 0);
    EXPECT_GT(with.profile.checkpoint_bytes, 0);
  } else {
    EXPECT_EQ(with.profile.checkpoint_saves, 0);
  }
  // From-zero replay never snapshots anything, but prunes the same schedules.
  EXPECT_EQ(without.profile.checkpoint_saves, 0);
  EXPECT_EQ(without.profile.checkpoint_resumes, 0);
  EXPECT_EQ(without.profile.checkpoint_bytes, 0);
  EXPECT_EQ(with.profile.pruned_schedules, without.profile.pruned_schedules);
}

}  // namespace
