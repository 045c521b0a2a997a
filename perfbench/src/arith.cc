#include "perfbench/src/arith.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "src/analysis/paper_reference.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

Tail TailPercentile(std::vector<double> values, size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) {
    return tail;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  auto rank = [n](double p) {
    // Nearest rank, 1-based; the small epsilon keeps exact products (0.9 * 100) from rounding up.
    return std::max<size_t>(1, static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9)));
  };
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    size_t k = rank(p);
    if (n - k >= min_beyond || p == 50.0) {
      tail.percentile = p;
      tail.value = values[k - 1];
      tail.beyond = n - k;
      return tail;
    }
  }
  return tail;
}

std::vector<int64_t> SelfTimes(const std::vector<SpanTimes>& spans) {
  std::map<int, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) {
    index[spans[i].id] = i;
  }
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const SpanTimes& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent >= 0 && it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t begin = spans[i].start_ns;
    const int64_t end = spans[i].end_ns;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = -1;
    bool open = false;
    for (auto [s, e] : kids) {
      s = std::max(s, begin);
      e = std::min(e, end);
      if (e <= s) {
        continue;
      }
      if (open && s <= run_end) {
        run_end = std::max(run_end, e);
        continue;
      }
      if (open) {
        covered += run_end - run_start;
      }
      run_start = s;
      run_end = e;
      open = true;
    }
    if (open) {
      covered += run_end - run_start;
    }
    self[i] = (end - begin) - covered;
  }
  return self;
}

double KneePerSec(const std::vector<KneeCell>& cells, double base_rate) {
  std::map<int, double> base_p99;
  std::map<double, std::vector<const KneeCell*>> by_rate;
  for (const KneeCell& cell : cells) {
    if (cell.offered_per_sec == base_rate) {
      base_p99[cell.paradigm] = cell.interactive_p99_us;
    }
    by_rate[cell.offered_per_sec].push_back(&cell);
  }
  double knee = 0;
  for (const auto& [rate, row] : by_rate) {
    if (rate < base_rate) {
      continue;
    }
    for (const KneeCell* cell : row) {
      auto base = base_p99.find(cell->paradigm);
      if (base == base_p99.end() || cell->interactive_p99_us > 3 * base->second ||
          cell->goodput_per_sec < 0.9 * cell->admitted_per_sec) {
        return knee;
      }
    }
    knee = rate;
  }
  return knee;
}

double TableRelErr(const std::vector<world::ScenarioResult>& results) {
  std::vector<double> errors;
  auto add = [&errors](double measured, double paper) {
    if (paper != 0) {
      errors.push_back(std::fabs(measured - paper) / std::fabs(paper));
    }
  };
  for (const world::ScenarioResult& r : results) {
    if (r.scenario == world::Scenario::kCedarEveryday) {
      continue;
    }
    const analysis::PaperRow& paper = analysis::PaperReference(r.scenario);
    add(r.summary.forks_per_sec, paper.forks_per_sec);
    add(r.summary.switches_per_sec, paper.switches_per_sec);
    add(r.summary.waits_per_sec, paper.waits_per_sec);
    add(r.summary.timeout_fraction * 100, paper.timeout_percent);
    add(r.summary.ml_enters_per_sec, paper.ml_enters_per_sec);
  }
  return Median(std::move(errors));
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t Fnv(std::string_view text, uint64_t h) {
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace perfbench
