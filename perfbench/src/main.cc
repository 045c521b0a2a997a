// pcrbench: runs one benchmark workload for a fixed time and prints one JSON report line.
//
//   pcrbench --workload=tables|explore|campaign|service --seed=N --seconds=S --trace=0|1
//            --repo-root=DIR --work-dir=DIR [--goldens=FILE] [--write-goldens=FILE]
//            [--span-file=FILE] [--ablate=dpor|checkpoint] [--setup-only]
//
// Flow: set-up (workload preparation, Runtime construction timings, one untimed warm-up pass),
// then a "ready" line on stdout, then whole passes of the workload until the time is spent,
// then the correctness checks, then the report. --trace=1 splits the time between untraced and
// traced passes and adds the per-layer metrics, the layer self-time table and the tracing
// overhead. perfbench/run.py builds this binary and turns its report into the benchmark's
// result line; README.md in this directory explains every metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/arith.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/spans.h"
#include "src/pcr/runtime.h"

namespace perfbench {
namespace {

constexpr uint64_t kDefaultSeed = 1;  // the seed the goldens are pinned at

struct Args {
  RunOptions run;
  std::string goldens;
  std::string write_goldens;
  std::string span_file;
  bool setup_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* flag) -> const char* {
      size_t len = std::strlen(flag);
      return arg.compare(0, len, flag) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--setup-only") {
      args->setup_only = true;
    } else if (const char* v = value("--workload=")) {
      args->run.workload = v;
    } else if (const char* v = value("--seed=")) {
      args->run.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds=")) {
      args->run.seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--trace=")) {
      args->run.trace = std::strcmp(v, "1") == 0;
    } else if (const char* v = value("--repo-root=")) {
      args->run.repo_root = v;
    } else if (const char* v = value("--work-dir=")) {
      args->run.work_dir = v;
    } else if (const char* v = value("--goldens=")) {
      args->goldens = v;
    } else if (const char* v = value("--write-goldens=")) {
      args->write_goldens = v;
    } else if (const char* v = value("--ablate=")) {
      args->run.ablate = v;
    } else if (const char* v = value("--span-file=")) {
      args->span_file = v;
    } else {
      std::fprintf(stderr, "pcrbench: unknown option %s\n", arg.c_str());
      return false;
    }
  }
  return !args->run.workload.empty() && !args->run.work_dir.empty() && args->run.seconds > 0;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tables") return MakeTables();
  if (name == "explore") return MakeExplore();
  if (name == "campaign") return MakeCampaign();
  if (name == "service") return MakeService();
  return nullptr;
}

// Runs whole passes until `seconds` of host time are spent (at least `min_passes`).
std::vector<PassResult> RunPasses(Workload& workload, double seconds, int min_passes,
                                  bool traced, int* next_unit) {
  std::vector<PassResult> passes;
  const int64_t begin = NowNs();
  while (passes.empty() || static_cast<int>(passes.size()) < min_passes ||
         (NowNs() - begin) * 1e-9 < seconds) {
    PassResult pass;
    const int64_t t0 = NowNs();
    for (int i = 0; i < workload.units_per_pass(); ++i) {
      const int64_t u0 = NowNs();
      workload.RunUnit(i, traced, (*next_unit)++, pass);
      pass.unit_ms.push_back((NowNs() - u0) * 1e-6);
    }
    workload.FinishPass(traced, pass);
    pass.wall_s = (NowNs() - t0) * 1e-9;
    passes.push_back(std::move(pass));
  }
  return passes;
}

// Names the first key on which two virtual-output maps disagree ("" when equal).
std::string FirstDifference(const std::map<std::string, std::string>& want,
                            const std::map<std::string, std::string>& got) {
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end()) {
      return key + " missing";
    }
    if (it->second != value) {
      return key + " = " + it->second + ", expected " + value;
    }
  }
  for (const auto& [key, value] : got) {
    if (want.find(key) == want.end()) {
      return key + " unexpected";
    }
  }
  return "";
}

bool ReadGoldens(const std::string& path, std::map<std::string, std::string>* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    size_t tab = line.find('\t');
    if (line.empty() || line[0] == '#' || tab == std::string::npos) {
      continue;
    }
    (*out)[line.substr(0, tab)] = line.substr(tab + 1);
  }
  return true;
}

bool WriteGoldens(const std::string& path, const std::string& workload,
                  const std::map<std::string, std::string>& virt) {
  std::ofstream out(path, std::ios::trunc);
  out << "# Virtual-time outputs of one " << workload << " pass at --seed="
      << kDefaultSeed << " (key<TAB>value).\n"
      << "# Regenerate: python3 perfbench/run.py --workload " << workload
      << " --seed 1 --write-goldens\n";
  for (const auto& [key, value] : virt) {
    out << key << '\t' << value << '\n';
  }
  return static_cast<bool>(out);
}

void JsonString(std::ostream& os, const std::string& s) {
  os << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
}

void JsonNumber(std::ostream& os, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  os << buf;
}

// Peak resident set of this process image. VmHWM, not getrusage's ru_maxrss: the latter
// keeps the high-water mark of the pre-exec image, i.e. of the Python parent that forked us.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

std::vector<double> Walls(const std::vector<PassResult>& passes) {
  std::vector<double> walls;
  for (const PassResult& p : passes) {
    walls.push_back(p.wall_s);
  }
  return walls;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pcrbench --workload=NAME --seed=N --seconds=S --trace=0|1 "
                 "--repo-root=DIR --work-dir=DIR [--goldens=FILE] [--write-goldens=FILE] "
                 "[--span-file=FILE] [--ablate=dpor|checkpoint] [--setup-only]\n");
    return 2;
  }
  RunOptions& run = args.run;
  std::unique_ptr<Workload> workload = MakeWorkload(run.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "pcrbench: unknown workload '%s'\n", run.workload.c_str());
    return 2;
  }
  unsigned hw = std::thread::hardware_concurrency();
  run.workers = static_cast<int>(std::min(4u, hw == 0 ? 1u : hw));
  std::filesystem::create_directories(run.work_dir);

  // ---- set-up: everything before the first timed unit.
  Spans::Enable(run.trace);
  Checks checks;
  workload->Setup(run, checks);
  std::vector<double> ctor_ms;
  for (int i = 0; i < 5; ++i) {
    ScopedSpan span("pcr.ctor", -1);
    int64_t t0 = NowNs();
    pcr::Runtime runtime;
    ctor_ms.push_back((NowNs() - t0) * 1e-6);
  }
  // One untimed warm-up pass: caches fill and lazy set-up finishes before timing, and its
  // virtual outputs join the pass-to-pass determinism check.
  int warm_unit = 0;
  std::vector<PassResult> warm = RunPasses(*workload, 0, 1, false, &warm_unit);
  std::printf("ready\n");
  std::fflush(stdout);
  if (args.setup_only) {
    return 0;
  }

  // ---- timed passes.
  int next_unit = 0;
  Spans::Enable(false);
  const double untraced_seconds = run.trace ? run.seconds / 2 : run.seconds;
  std::vector<PassResult> passes = RunPasses(*workload, untraced_seconds, 3, false, &next_unit);
  std::vector<PassResult> traced;
  std::vector<Span> traced_spans;
  if (run.trace) {
    Spans::Enable(true);
    int first_id = Spans::NextId();
    traced = RunPasses(*workload, run.seconds / 2, 2, true, &next_unit);
    int last_id = Spans::NextId();
    for (const Span& s : Spans::Collect()) {
      if (s.id >= first_id && s.id < last_id) {
        traced_spans.push_back(s);
      }
    }
  }

  // ---- checks.
  const PassResult& first = passes.front();
  {
    std::string diff = FirstDifference(first.virt, warm.front().virt);
    checks.Expect(diff.empty(), "warm-up pass differs from pass 0: " + diff);
  }
  for (size_t i = 1; i < passes.size(); ++i) {
    std::string diff = FirstDifference(first.virt, passes[i].virt);
    checks.Expect(diff.empty(), "pass " + std::to_string(i) + " differs from pass 0: " + diff);
  }
  for (size_t i = 0; i < traced.size(); ++i) {
    std::string diff = FirstDifference(first.virt, traced[i].virt);
    checks.Expect(diff.empty(), "traced pass " + std::to_string(i) +
                                    " differs from the untraced passes: " + diff);
  }
  if (run.seed == kDefaultSeed && !args.goldens.empty()) {
    std::map<std::string, std::string> goldens;
    if (checks.Expect(ReadGoldens(args.goldens, &goldens), "cannot read " + args.goldens)) {
      std::string diff = FirstDifference(goldens, first.virt);
      checks.Expect(diff.empty(), "golden mismatch at the default seed: " + diff);
    }
  }
  {
    const int sample = static_cast<int>(Mix(run.seed, 99) %
                                        static_cast<uint64_t>(workload->units_per_pass()));
    ScopedSpan span("bench.rerun", -1);
    PassResult again;
    workload->RunUnit(sample, false, -1, again);
    for (const auto& [key, value] : again.virt) {
      auto it = first.virt.find(key);
      checks.Expect(it != first.virt.end() && it->second == value,
                    "rerun of unit " + std::to_string(sample) + " changed " + key);
    }
  }
  std::map<std::string, double> layer;
  for (const PassResult& p : traced) {
    for (const auto& [key, value] : p.layer) {
      layer[key] += value;
    }
  }
  workload->ExtraChecks(first, run.trace, checks, layer);
  if (run.trace && !args.span_file.empty()) {
    checks.Expect(Spans::WriteChromeTrace(args.span_file, Spans::Collect()),
                  "cannot write span file " + args.span_file);
  }

  if (!args.write_goldens.empty() && run.seed == kDefaultSeed) {
    WriteGoldens(args.write_goldens, run.workload, first.virt);
  }

  // ---- metrics.
  std::vector<Metric> metrics;
  std::vector<double> units;
  for (const PassResult& p : passes) {
    units.insert(units.end(), p.unit_ms.begin(), p.unit_ms.end());
  }
  const double wall_s = Median(Walls(passes));
  const Tail tail = TailPercentile(units);
  char tail_note[96];
  std::snprintf(tail_note, sizeof(tail_note), "p%g of %zu units, %zu beyond", tail.percentile,
                tail.samples, tail.beyond);
  metrics.push_back({"wall_s", wall_s, "s", "host",
                     "median of " + std::to_string(passes.size()) + " passes of " +
                         std::to_string(workload->units_per_pass()) + " units"});
  metrics.push_back({"unit_p50_ms", Median(units), "ms", "host",
                     std::to_string(units.size()) + " units"});
  metrics.push_back({"unit_tail_ms", tail.value, "ms", "host", tail_note});
  metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB", "host", ""});
  workload->EndToEnd(passes, wall_s, metrics);
  metrics.push_back({"check_fail_frac",
                     checks.attempted() == 0 ? 1.0
                                             : static_cast<double>(checks.failures().size()) /
                                                   checks.attempted(),
                     "ratio", "exact",
                     std::to_string(checks.failures().size()) + " of " +
                         std::to_string(checks.attempted()) + " checks failed"});

  if (run.trace) {
    const double traced_wall = Median(Walls(traced));
    workload->PerLayer(layer, static_cast<int>(traced.size()), metrics);
    metrics.push_back({"pcr.ctor_ms", Median(ctor_ms), "ms", "layer",
                       "pcr::Runtime construction, median of 5"});
    for (const auto& [name, ns] : Spans::LayerSelfNs(traced_spans)) {
      metrics.push_back({name + ".self_ms", ns * 1e-6 / static_cast<double>(traced.size()),
                         "ms", "layer", "self time per traced pass"});
    }
    metrics.push_back({"bench.tracing_overhead", traced_wall / wall_s, "ratio", "layer",
                       "traced wall_s " + std::to_string(traced_wall) + " / untraced " +
                           std::to_string(wall_s)});
  }

  std::ostringstream os;
  os << "{\"workload\": ";
  JsonString(os, run.workload);
  os << ", \"seed\": " << run.seed << ", \"trace\": " << (run.trace ? 1 : 0)
     << ", \"workers\": " << run.workers << ", \"passes\": " << passes.size()
     << ", \"traced_passes\": " << traced.size() << ", \"units\": " << units.size()
     << ", \"checks\": {\"attempted\": " << checks.attempted()
     << ", \"failed\": " << checks.failures().size() << ", \"failures\": [";
  for (size_t i = 0; i < checks.failures().size(); ++i) {
    os << (i ? ", " : "");
    JsonString(os, checks.failures()[i]);
  }
  os << "]}, \"metrics\": [";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    os << (i ? ", " : "") << "{\"name\": ";
    JsonString(os, m.name);
    os << ", \"value\": ";
    JsonNumber(os, m.value);
    os << ", \"unit\": ";
    JsonString(os, m.unit);
    os << ", \"kind\": ";
    JsonString(os, m.kind);
    os << ", \"note\": ";
    JsonString(os, m.note);
    os << "}";
  }
  os << "]}";
  std::printf("%s\n", os.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
