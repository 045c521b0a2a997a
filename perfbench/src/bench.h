// Shared types of the benchmark runner: the check ledger, the per-pass result and the
// workload interface main.cc drives.

#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

// Every correctness check the run makes. Nothing is skipped: a check either runs and passes,
// or runs and fails (and its message is kept).
class Checks {
 public:
  bool Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      failures_.push_back(what);
    }
    return ok;
  }
  int attempted() const { return attempted_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int attempted_ = 0;
  std::vector<std::string> failures_;
};

// What one pass (the workload's fixed unit of work) produced.
struct PassResult {
  std::vector<double> unit_ms;  // host time per unit, in unit order
  double wall_s = 0;            // host time of the whole pass (units + pass epilogue)
  // Virtual-time outputs: trace hashes, counts, derived virtual metrics. Exact, so every pass
  // of a run must produce the same map, traced or not; at the default seed it must also equal
  // the pinned goldens.
  std::map<std::string, std::string> virt;
  // Host-side per-layer measurements of a traced pass, summed (divided out in Finish).
  std::map<std::string, double> layer;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string kind;  // "host", "virtual", "exact" or "layer"
  std::string note;  // extra context printed beside the value
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string repo_root = ".";
  std::string work_dir;  // working space inside the checkout (corpus copies, span files)
  int workers = 1;       // min(4, hardware threads)
  // Sensitivity self-check only: "dpor" or "checkpoint" turns that public ExploreOptions
  // mechanism off for every explorer the workload builds ("" = registry defaults).
  std::string ablate;
};

// Applies RunOptions::ablate to explorer options built by a workload.
inline void ApplyAblation(const std::string& ablate, bool* dpor, bool* checkpoint) {
  if (ablate == "dpor") {
    *dpor = false;
  } else if (ablate == "checkpoint") {
    *checkpoint = false;
  }
}

class Workload {
 public:
  virtual ~Workload() = default;

  // Untimed preparation before the first timed unit (corpus copies, input generation).
  virtual void Setup(const RunOptions& options, Checks& checks) = 0;
  virtual int units_per_pass() const = 0;
  // Runs unit `index` of the pass; the caller times it. `traced` adds spans and layer timing.
  virtual void RunUnit(int index, bool traced, int unit_id, PassResult& pass) = 0;
  // Pass epilogue (rendering, knee detection), timed as part of the pass.
  virtual void FinishPass(bool traced, PassResult& pass) = 0;
  // Seed-independent checks beyond pass-to-pass equality: sampled reruns, replays, oracles.
  // `first` is the first timed pass's result; traced runs add their timings to `layer`.
  virtual void ExtraChecks(const PassResult& first, bool traced, Checks& checks,
                           std::map<std::string, double>& layer) = 0;
  // End-to-end metrics specific to the workload, from the timed passes (all with the same
  // virtual outputs) and the median pass time.
  virtual void EndToEnd(const std::vector<PassResult>& passes, double wall_s,
                        std::vector<Metric>& out) = 0;
  // Per-layer metrics from the traced passes' summed layer maps.
  virtual void PerLayer(const std::map<std::string, double>& layer, int traced_passes,
                        std::vector<Metric>& out) = 0;
};

std::unique_ptr<Workload> MakeTables();
std::unique_ptr<Workload> MakeExplore();
std::unique_ptr<Workload> MakeCampaign();
std::unique_ptr<Workload> MakeService();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
