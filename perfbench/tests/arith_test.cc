// Tests of the benchmark's own arithmetic: the tail-percentile rule, self time with children
// overlapping across worker threads, the service knee, and the paper-table relative error.

#include <gtest/gtest.h>

#include <vector>

#include "perfbench/src/arith.h"
#include "src/analysis/paper_reference.h"

namespace perfbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) {
    v.push_back(static_cast<double>(i));  // n..1, unsorted on purpose
  }
  return v;
}

TEST(TailPercentile, PicksHighestPercentileWithTenBeyond) {
  Tail t = TailPercentile(Ramp(100));
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.value, 90);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 100u);

  // One sample fewer leaves only 9 beyond p90, so the rule drops to p75.
  t = TailPercentile(Ramp(99));
  EXPECT_EQ(t.percentile, 75);
  EXPECT_EQ(t.value, 75);
  EXPECT_EQ(t.beyond, 24u);

  EXPECT_EQ(TailPercentile(Ramp(200)).percentile, 95);
  EXPECT_EQ(TailPercentile(Ramp(1000)).percentile, 99);
  t = TailPercentile(Ramp(10000));
  EXPECT_EQ(t.percentile, 99.9);
  EXPECT_EQ(t.value, 9990);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(TailPercentile, FallsBackToMedianForSmallSamples) {
  Tail t = TailPercentile(Ramp(12));
  EXPECT_EQ(t.percentile, 50);
  EXPECT_EQ(t.value, 6);
  EXPECT_EQ(t.beyond, 6u);
  EXPECT_EQ(TailPercentile({}).samples, 0u);
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({0, 10}, 0.25), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0);
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  // A unit waiting on a pool: two workers' children overlap each other, a third runs past
  // the parent's end, and a grandchild must not reduce the parent's self time.
  std::vector<SpanTimes> spans = {
      {0, -1, 0, 100},  // parent
      {1, 0, 10, 50},   // worker A
      {2, 0, 30, 70},   // worker B, overlaps A
      {3, 0, 90, 120},  // clipped to [90, 100)
      {4, 1, 20, 40},   // grandchild under A
  };
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - (70 - 10) - (100 - 90));
  EXPECT_EQ(self[1], 40 - 20);
  EXPECT_EQ(self[2], 40);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 20);
}

TEST(SelfTimes, DisjointAndNestedChildren) {
  std::vector<SpanTimes> spans = {{7, -1, 0, 50}, {8, 7, 0, 10}, {9, 7, 20, 30}, {10, 7, 25, 28}};
  std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 50 - 10 - 10);  // [25,28) lies inside [20,30)
}

std::vector<KneeCell> Sweep() {
  std::vector<KneeCell> cells;
  for (int p = 0; p < 3; ++p) {
    for (double rate : {1500.0, 2250.0, 3000.0, 3750.0, 6000.0}) {
      cells.push_back(KneeCell{p, rate, 1000, rate, rate});
    }
  }
  return cells;
}

KneeCell& Cell(std::vector<KneeCell>& cells, int paradigm, double rate) {
  for (KneeCell& c : cells) {
    if (c.paradigm == paradigm && c.offered_per_sec == rate) {
      return c;
    }
  }
  return cells.front();
}

TEST(Knee, AllCellsMeetTheLimit) { EXPECT_EQ(KneePerSec(Sweep(), 1500), 6000); }

TEST(Knee, LatencyLimitIsThreeTimesTheParadigmsBase) {
  std::vector<KneeCell> cells = Sweep();
  Cell(cells, 2, 3750).interactive_p99_us = 3000;  // exactly 3x: still meets
  EXPECT_EQ(KneePerSec(cells, 1500), 6000);
  Cell(cells, 2, 3750).interactive_p99_us = 3001;
  EXPECT_EQ(KneePerSec(cells, 1500), 3000);
  // The limit is per paradigm: a slower base raises that paradigm's limit only.
  Cell(cells, 2, 1500).interactive_p99_us = 2000;
  EXPECT_EQ(KneePerSec(cells, 1500), 6000);
}

TEST(Knee, GoodputLimitAndBottomUpReading) {
  std::vector<KneeCell> cells = Sweep();
  Cell(cells, 0, 2250).goodput_per_sec = 0.89 * 2250;
  Cell(cells, 1, 6000).interactive_p99_us = 99999;
  // Fails at 2250; the later recovery at 3000/3750 does not count.
  EXPECT_EQ(KneePerSec(cells, 1500), 1500);
  Cell(cells, 0, 1500).goodput_per_sec = 100;
  EXPECT_EQ(KneePerSec(cells, 1500), 0);
}

world::ScenarioResult Row(world::Scenario scenario, double factor) {
  const analysis::PaperRow& paper = analysis::PaperReference(scenario);
  world::ScenarioResult r;
  r.scenario = scenario;
  r.summary.forks_per_sec = paper.forks_per_sec * factor;
  r.summary.switches_per_sec = paper.switches_per_sec * factor;
  r.summary.waits_per_sec = paper.waits_per_sec * factor;
  r.summary.timeout_fraction = paper.timeout_percent * factor / 100;
  r.summary.ml_enters_per_sec = paper.ml_enters_per_sec * factor;
  return r;
}

TEST(TableRelErr, MedianAgainstPaperReference) {
  std::vector<world::ScenarioResult> results;
  for (world::Scenario s : world::AllScenarios()) {
    results.push_back(Row(s, 1.1));
  }
  EXPECT_NEAR(TableRelErr(results), 0.1, 1e-9);

  // The median ignores one far-off row, and kCedarEveryday (no paper row) is skipped.
  results[3] = Row(results[3].scenario, 3.0);
  results.push_back(Row(world::Scenario::kCedarIdle, 50.0));
  results.back().scenario = world::Scenario::kCedarEveryday;
  EXPECT_NEAR(TableRelErr(results), 0.1, 1e-9);
}

TEST(TableRelErr, EvenCellCountInterpolates) {
  // Two scenarios, every one of their non-zero paper cells off by 10% and 30%: the
  // interpolated median lands between the middle pair.
  std::vector<world::ScenarioResult> results = {Row(world::Scenario::kCedarKeyboard, 1.1),
                                                Row(world::Scenario::kCedarKeyboard, 1.3)};
  EXPECT_NEAR(TableRelErr(results), 0.2, 1e-9);
}

}  // namespace
}  // namespace perfbench
