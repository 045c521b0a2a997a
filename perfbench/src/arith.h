// The benchmark's own arithmetic: order statistics, the tail-percentile rule, span self time,
// the service knee and the paper-table relative error. Pure functions, so tests/arith_test.cc
// can pin each rule on hand-made inputs.

#ifndef PERFBENCH_SRC_ARITH_H_
#define PERFBENCH_SRC_ARITH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/world/scenarios.h"

namespace perfbench {

// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for an empty one.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} that leaves at least
// `min_beyond` samples strictly above its nearest-rank position (rank = ceil(p/100 * n)).
// Falls back to the median (p50) when even that leaves fewer.
struct Tail {
  double percentile = 50;
  double value = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
Tail TailPercentile(std::vector<double> values, size_t min_beyond = 10);

// One recorded span. Children may run on other threads, so they can overlap each other.
struct SpanTimes {
  int id = 0;
  int parent = -1;  // -1 = root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Self time of every span, indexed like `spans`: its duration minus the measure of the union
// of its direct children's intervals clipped to it. Overlapping children (a parent waiting on
// a worker pool) therefore count once, not once per child.
std::vector<int64_t> SelfTimes(const std::vector<SpanTimes>& spans);

// One cell of the service sweep, reduced to what the knee rule reads.
struct KneeCell {
  int paradigm = 0;
  double offered_per_sec = 0;
  double interactive_p99_us = 0;
  double goodput_per_sec = 0;   // completed requests per second of offered load
  double admitted_per_sec = 0;  // admitted requests per second of offered load
};

// The highest offered rate at which every paradigm meets the limit — interactive p99 at most
// 3x that paradigm's p99 at `base_rate`, and goodput at least 90% of the admitted rate — read
// bottom-up: the sweep stops at the first rate where some paradigm misses. 0 when the base
// rate itself misses.
double KneePerSec(const std::vector<KneeCell>& cells, double base_rate);

// Median over the Table 1-2 cells (forks/s, switches/s, waits/s, %timeouts, ML-enters/s) of
// |measured - paper| / paper, against analysis::PaperReference. Scenarios without a paper row
// (kCedarEveryday) and cells whose paper value is 0 are skipped.
double TableRelErr(const std::vector<world::ScenarioResult>& results);

// SplitMix64 finaliser: every per-unit seed is Mix(run seed, unit coordinates).
uint64_t Mix(uint64_t a, uint64_t b);

// FNV-1a over bytes, for fingerprints of rendered text and failure keys.
uint64_t Fnv(std::string_view text, uint64_t h = 0xcbf29ce484222325ull);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_ARITH_H_
