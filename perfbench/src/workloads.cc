// The four workloads. Each drives the simulator only through its public entry points
// (world::RunScenario, analysis::PrintTable*, explore::Explorer, explore::Campaign,
// world::RunServiceLoad) and derives every per-unit seed from the run seed.

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "perfbench/src/arith.h"
#include "perfbench/src/bench.h"
#include "perfbench/src/spans.h"
#include "src/analysis/table.h"
#include "src/explore/campaign.h"
#include "src/explore/detector.h"
#include "src/explore/explorer.h"
#include "src/explore/hash.h"
#include "src/explore/scenarios.h"
#include "src/pcr/runtime.h"
#include "src/trace/genealogy.h"
#include "src/trace/stats.h"
#include "src/world/scenarios.h"
#include "src/world/service_world.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

double Get(const PassResult& pass, const std::string& key) {
  auto it = pass.virt.find(key);
  return it == pass.virt.end() ? 0 : std::stod(it->second);
}

double Layer(const std::map<std::string, double>& layer, const std::string& key) {
  auto it = layer.find(key);
  return it == layer.end() ? 0 : it->second;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

constexpr double kMsPerNs = 1e-6;

// A stream that keeps only an FNV-1a hash and a byte count of what is written to it: the
// "null stream" the table renderers print into, with a fingerprint for the goldens.
class HashBuf : public std::streambuf {
 public:
  uint64_t hash() const { return hash_; }
  size_t bytes() const { return bytes_; }

 protected:
  int overflow(int c) override {
    if (c != traits_type::eof()) {
      char ch = traits_type::to_char_type(c);
      xsputn(&ch, 1);
    }
    return c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    hash_ = Fnv(std::string_view(s, static_cast<size_t>(n)), hash_);
    bytes_ += static_cast<size_t>(n);
    return n;
  }

 private:
  uint64_t hash_ = Fnv("");
  size_t bytes_ = 0;
};

// The failure identity the campaign also uses: first detector finding, else first assertion.
std::string FailureKey(const explore::ScheduleOutcome& outcome) {
  if (!outcome.findings.empty()) {
    const explore::Finding& f = outcome.findings.front();
    return std::string(explore::FindingKindName(f.kind)) + "@" + std::to_string(f.object);
  }
  return outcome.failures.empty() ? "unknown" : outcome.failures.front();
}

// ------------------------------------------------------------------------------- tables

class Tables : public Workload {
 public:
  static constexpr int kSeeds = 3;

  void Setup(const RunOptions& options, Checks&) override {
    scenarios_ = world::AllScenarios();
    scenarios_.push_back(world::Scenario::kCedarEveryday);
    for (int k = 0; k < kSeeds; ++k) {
      seeds_.push_back(Mix(options.seed, 1000 + k) % 1000000 + 1);
    }
    results_.resize(static_cast<size_t>(units_per_pass()));
  }

  int units_per_pass() const override { return static_cast<int>(scenarios_.size()) * kSeeds; }

  void RunUnit(int index, bool traced, int unit_id, PassResult& pass) override {
    const size_t n = scenarios_.size();
    const world::Scenario scenario = scenarios_[static_cast<size_t>(index) % n];
    const int k = index / static_cast<int>(n);
    world::ScenarioOptions options;
    options.seed = seeds_[static_cast<size_t>(k)];
    int64_t t_setup = 0;
    int64_t t_inspect_begin = 0;
    int64_t t_inspect_end = 0;
    uint64_t hash = 0;
    size_t events = 0;
    int64_t switches = 0;
    options.setup = [&](pcr::Runtime&) { t_setup = NowNs(); };
    options.inspect = [&](pcr::Runtime& rt) {
      t_inspect_begin = NowNs();
      ScopedSpan inspect("bench.inspect", unit_id);
      events = rt.tracer().size();
      switches = rt.scheduler().fiber_switches();
      {
        ScopedSpan span("trace.hash", unit_id);
        int64_t t0 = NowNs();
        hash = explore::TraceHash(rt.tracer());
        if (traced) {
          pass.layer["hash_ns"] += static_cast<double>(NowNs() - t0);
        }
      }
      if (traced) {
        // RunScenario summarizes inside its simulate interval; re-time both passes here so
        // that interval can be split into simulation and trace analysis.
        trace::StatsOptions stats;
        stats.window_begin = options.warmup;
        stats.window_end = options.warmup + options.duration;
        int64_t t0 = NowNs();
        {
          ScopedSpan span("trace.summarize", unit_id);
          trace::Summary summary = trace::Summarize(rt.tracer(), stats);
          (void)summary;
        }
        int64_t t1 = NowNs();
        {
          ScopedSpan span("trace.genealogy", unit_id);
          trace::GenealogySummary genealogy = trace::AnalyzeGenealogy(rt.tracer());
          (void)genealogy;
        }
        int64_t t2 = NowNs();
        pass.layer["summarize_ns"] += static_cast<double>(t1 - t0);
        pass.layer["genealogy_ns"] += static_cast<double>(t2 - t1);
      }
      t_inspect_end = NowNs();
    };

    int unit_span = Spans::Begin("world.run_scenario", unit_id);
    world::ScenarioResult result = world::RunScenario(scenario, options);
    int64_t t_end = NowNs();
    Spans::End(unit_span);

    const std::string key = "tables." + result.name + "." + std::to_string(k);
    pass.virt[key + ".hash"] = Hex(hash);
    pass.virt[key + ".events"] = std::to_string(events);
    pass.virt[key + ".x_requests"] = std::to_string(result.x_requests);
    pass.virt[key + ".x_flushes"] = std::to_string(result.x_flushes);
    if (traced) {
      auto& l = pass.layer;
      Spans::Add("pcr.simulate", unit_id, unit_span, t_setup, t_inspect_begin);
      Spans::Add("pcr.teardown", unit_id, unit_span, t_inspect_end, t_end);
      l["units"] += 1;
      l["events"] += static_cast<double>(events);
      l["simulate_ns"] += static_cast<double>(t_inspect_begin - t_setup);
      l["teardown_ns"] += static_cast<double>(t_end - t_inspect_end);
      l["switches"] += static_cast<double>(switches);
      l["x_requests"] += static_cast<double>(result.x_requests);
      l["x_flushes"] += static_cast<double>(result.x_flushes);
    }
    results_[static_cast<size_t>(index)] = std::move(result);
  }

  void FinishPass(bool traced, PassResult& pass) override {
    const size_t n = scenarios_.size();
    std::vector<world::ScenarioResult> table_rows;
    for (int k = 0; k < kSeeds; ++k) {
      std::vector<world::ScenarioResult> rows;
      for (size_t i = 0; i < n; ++i) {
        const world::ScenarioResult& r = results_[static_cast<size_t>(k) * n + i];
        if (r.scenario != world::Scenario::kCedarEveryday) {
          rows.push_back(r);
        }
      }
      HashBuf buf;
      std::ostream out(&buf);
      int64_t t0 = NowNs();
      {
        ScopedSpan span("analysis.render", -1);
        analysis::PrintTable1(out, rows);
        analysis::PrintTable2(out, rows);
        analysis::PrintTable3(out, rows);
        analysis::PrintTable4(out, rows);
        analysis::PrintDistributions(out, rows);
      }
      if (traced) {
        pass.layer["render_ns"] += static_cast<double>(NowNs() - t0);
        pass.layer["renders"] += 1;
      }
      pass.virt["tables.render." + std::to_string(k)] =
          Hex(buf.hash()) + "/" + std::to_string(buf.bytes());
      table_rows.insert(table_rows.end(), rows.begin(), rows.end());
    }
    ScopedSpan span("analysis.rel_err", -1);
    pass.virt["tables.table_rel_err"] = Num(TableRelErr(table_rows));
  }

  void ExtraChecks(const PassResult& first, bool, Checks& checks,
                   std::map<std::string, double>&) override {
    for (int k = 0; k < kSeeds; ++k) {
      const std::string& render = first.virt.at("tables.render." + std::to_string(k));
      checks.Expect(render.substr(render.find('/') + 1) != "0",
                    "tables: Table 1-4 rendering printed nothing for seed set " +
                        std::to_string(k));
    }
    double rel = Get(first, "tables.table_rel_err");
    checks.Expect(std::isfinite(rel) && rel > 0,
                  "tables: table_rel_err is not a positive finite number: " + Num(rel));
  }

  void EndToEnd(const std::vector<PassResult>& passes, double wall_s,
                std::vector<Metric>& out) override {
    const PassResult& pass = passes.front();
    double events = 0;
    for (const auto& [key, value] : pass.virt) {
      if (key.size() > 7 && key.compare(key.size() - 7, 7, ".events") == 0) {
        events += std::stod(value);
      }
    }
    out.push_back({"sim_events_per_s", events / wall_s, "events/s", "host",
                   Num(events) + " events per pass"});
    out.push_back({"table_rel_err", Get(pass, "tables.table_rel_err"), "ratio", "virtual",
                   "median |measured - paper| / paper over Table 1-2 cells"});
  }

  void PerLayer(const std::map<std::string, double>& l, int passes,
                std::vector<Metric>& out) override {
    double units = Layer(l, "units");
    double events = Layer(l, "events");
    double simulate =
        Layer(l, "simulate_ns") - Layer(l, "summarize_ns") - Layer(l, "genealogy_ns");
    out.push_back({"pcr.simulate_ns_per_event", Ratio(simulate, events), "ns", "layer",
                   "world build + RunFor, re-timed trace analysis subtracted"});
    out.push_back({"pcr.teardown_ms", Ratio(Layer(l, "teardown_ns"), units) * kMsPerNs, "ms",
                   "layer", "inspect hook return to RunScenario return, per unit"});
    out.push_back({"pcr.fiber_switches", Layer(l, "switches") / passes, "count", "layer",
                   "per pass"});
    out.push_back({"pcr.switches_per_event", Ratio(Layer(l, "switches"), events), "ratio",
                   "layer", ""});
    out.push_back({"trace.events", events / passes, "count", "layer", "per pass"});
    out.push_back({"trace.events_per_unit", Ratio(events, units), "count", "layer", ""});
    out.push_back({"trace.summarize_ms", Ratio(Layer(l, "summarize_ns"), units) * kMsPerNs,
                   "ms", "layer", "per unit"});
    out.push_back({"trace.genealogy_ms", Ratio(Layer(l, "genealogy_ns"), units) * kMsPerNs,
                   "ms", "layer", "per unit"});
    out.push_back({"trace.hash_ns_per_event", Ratio(Layer(l, "hash_ns"), events), "ns", "layer",
                   "TraceHash in the inspect hook"});
    out.push_back({"analysis.render_ms", Ratio(Layer(l, "render_ns"), Layer(l, "renders")) *
                                             kMsPerNs,
                   "ms", "layer", "PrintTable1..4 + PrintDistributions, per render"});
    out.push_back({"world.x_requests_per_flush",
                   Ratio(Layer(l, "x_requests"), Layer(l, "x_flushes")), "ratio", "layer",
                   "virtual"});
  }

 private:
  std::vector<world::Scenario> scenarios_;
  std::vector<uint64_t> seeds_;
  std::vector<world::ScenarioResult> results_;
};

// ------------------------------------------------------------------------------ explore

const char* const kBuiltinScenarios[] = {"buggy_monitor", "good_monitor", "missing_notify",
                                         "weakmem_race"};

class Explore : public Workload {
 public:
  static constexpr int kBudgets[] = {2000, 8192};
  static constexpr int kReps = 2;  // seeds per scenario at the large budget

  void Setup(const RunOptions& options, Checks& checks) override {
    workers_ = options.workers;
    ablate_ = options.ablate;
    int i = 0;
    for (const char* name : kBuiltinScenarios) {
      const explore::BugScenario* scenario = explore::FindScenario(name);
      if (!checks.Expect(scenario != nullptr, std::string("explore: no scenario ") + name)) {
        continue;
      }
      for (int budget : kBudgets) {
        // Short two-level calls run at twice as many seeds as the three-level ones. With four
        // scenarios that puts the pass's median unit in the middle of the buggy/good_monitor
        // @2000 group instead of in the gap between the two geometries.
        for (int rep = 0; rep < (budget == kBudgets[0] ? 2 * kReps : kReps); ++rep) {
          calls_.push_back(
              Call{scenario, budget, rep, Mix(options.seed, 2000 + i++) % 1000000 + 1});
        }
      }
    }
    results_.resize(calls_.size());
  }

  int units_per_pass() const override { return static_cast<int>(calls_.size()); }

  void RunUnit(int index, bool traced, int unit_id, PassResult& pass) override {
    const Call& call = calls_[static_cast<size_t>(index)];
    explore::Explorer explorer(Options(call, workers_, ablate_));
    explore::ExploreResult result;
    int64_t t0 = NowNs();
    {
      ScopedSpan span("explore.call", unit_id);
      result = explorer.Explore(call.scenario->body);
    }
    int64_t t1 = NowNs();
    const std::string key = VirtKey(call);
    pass.virt[key + ".schedules_run"] = std::to_string(result.schedules_run);
    pass.virt[key + ".distinct"] = std::to_string(result.distinct_schedules);
    pass.virt[key + ".pruned"] = std::to_string(result.profile.pruned_schedules);
    pass.virt[key + ".failures"] = Failures(result);
    if (traced) {
      const explore::ExploreProfile& p = result.profile;
      auto& l = pass.layer;
      l["call_ns." + Name(call)] += static_cast<double>(t1 - t0);
      l["calls." + Name(call)] += 1;
      l["calls"] += 1;
      l["total_sec"] += p.total_sec;
      l["sweep_sec"] += p.sweep_sec;
      l["minimize_sec"] += p.minimize_sec;
      l["run_sec"] += p.run_sec;
      l["detector_sec"] += p.detector_sec;
      l["switches"] += static_cast<double>(p.fiber_switches);
      l["stack_acquires"] += static_cast<double>(p.stack_acquires);
      l["stack_pool_hits"] += static_cast<double>(p.stack_pool_hits);
      l["checkpoint_saves"] += static_cast<double>(p.checkpoint_saves);
      l["checkpoint_resumes"] += static_cast<double>(p.checkpoint_resumes);
      l["checkpoint_bytes"] += static_cast<double>(p.checkpoint_bytes);
      l["pruned"] += static_cast<double>(p.pruned_schedules);
      l["dpor_pruned"] += static_cast<double>(p.dpor_pruned);
      l["drain_spliced"] += static_cast<double>(p.drain_spliced);
      l["schedules_run"] += result.schedules_run;
      l["distinct"] += result.distinct_schedules;
    }
    results_[static_cast<size_t>(index)] = std::move(result);
  }

  void FinishPass(bool, PassResult&) override {}

  void ExtraChecks(const PassResult&, bool traced, Checks& checks,
                   std::map<std::string, double>& layer) override {
    for (size_t i = 0; i < calls_.size(); ++i) {
      const Call& call = calls_[i];
      const explore::ExploreResult& result = results_[i];
      const std::string name = Name(call);
      if (call.scenario->expect_bug) {
        checks.Expect(!result.failures.empty(), "explore: " + name + " found no failure");
      } else {
        checks.Expect(result.failures.empty(),
                      "explore: " + name + " reported " + std::to_string(result.failures.size()) +
                          " failure(s) on a correct scenario");
      }
      // Every failure's repro must replay to the same trace hash.
      explore::Explorer explorer(Options(call, workers_, ablate_));
      for (const explore::ScheduleOutcome& failure : result.failures) {
        trace::Tracer capture;
        explore::ScheduleOutcome again;
        int64_t t0 = NowNs();
        {
          ScopedSpan span("explore.replay", -1);
          again = explorer.Replay(failure.repro, call.scenario->body, &capture);
        }
        int64_t t1 = NowNs();
        checks.Expect(again.trace_hash == failure.trace_hash && again.failed,
                      "explore: " + name + " repro " + failure.repro + " replayed to " +
                          Hex(again.trace_hash) + ", not " + Hex(failure.trace_hash));
        if (!traced) {
          continue;
        }
        int64_t t2 = NowNs();
        uint64_t hash = 0;
        {
          ScopedSpan span("trace.hash", -1);
          hash = explore::TraceHash(capture);
        }
        int64_t t3 = NowNs();
        {
          ScopedSpan span("explore.detector", -1);
          std::vector<explore::Finding> findings =
              explore::AnalyzeTrace(capture, call.scenario->options.detector);
          (void)findings;
        }
        int64_t t4 = NowNs();
        checks.Expect(hash == failure.trace_hash,
                      "explore: " + name + " captured trace hashes to " + Hex(hash));
        layer["replays"] += 1;
        layer["replay_ns"] += static_cast<double>(t1 - t0);
        layer["replay_events"] += static_cast<double>(capture.size());
        layer["hash_ns"] += static_cast<double>(t3 - t2);
        layer["detector_ns"] += static_cast<double>(t4 - t3);
      }
    }
    // One sampled call at workers=1 must equal its workers=N result.
    size_t sample = static_cast<size_t>(Mix(calls_.empty() ? 0 : calls_[0].seed, 7) %
                                        std::max<size_t>(calls_.size(), 1));
    if (sample < calls_.size()) {
      const Call& call = calls_[sample];
      ScopedSpan span("bench.workers1", -1);
      explore::Explorer serial(Options(call, 1, ablate_));
      explore::ExploreResult one = serial.Explore(call.scenario->body);
      const explore::ExploreResult& many = results_[sample];
      checks.Expect(one.schedules_run == many.schedules_run &&
                        one.distinct_schedules == many.distinct_schedules &&
                        Failures(one) == Failures(many),
                    "explore: " + Name(call) + " differs between workers=1 and workers=" +
                        std::to_string(workers_));
    }
  }

  void EndToEnd(const std::vector<PassResult>& passes, double wall_s,
                std::vector<Metric>& out) override {
    const PassResult& pass = passes.front();
    double run = 0;
    double distinct = 0;
    double pruned = 0;
    for (const Call& call : calls_) {
      const std::string key = VirtKey(call);
      run += Get(pass, key + ".schedules_run");
      distinct += Get(pass, key + ".distinct");
      pruned += Get(pass, key + ".pruned");
    }
    // Per-geometry rates for the sensitivity self-check: each call's median time over passes.
    std::string by_budget;
    for (int budget : kBudgets) {
      double budget_distinct = 0;
      double budget_s = 0;
      for (size_t i = 0; i < calls_.size(); ++i) {
        if (calls_[i].budget != budget) {
          continue;
        }
        std::vector<double> ms;
        for (const PassResult& p : passes) {
          ms.push_back(p.unit_ms[i]);
        }
        budget_distinct += Get(pass, VirtKey(calls_[i]) + ".distinct");
        budget_s += Median(ms) * 1e-3;
      }
      by_budget += "; @" + std::to_string(budget) + " " + Num(Ratio(budget_distinct, budget_s)) +
                   "/s";
    }
    out.push_back({"distinct_schedules_per_s", distinct / wall_s, "1/s", "host",
                   Num(distinct) + " distinct of " + Num(run) + " run per pass" + by_budget});
    out.push_back({"executed_schedules_per_s", (run - pruned) / wall_s, "1/s", "host",
                   "raw rate counting pruned copies: " + Num(run / wall_s) + "/s"});
  }

  void PerLayer(const std::map<std::string, double>& l, int passes,
                std::vector<Metric>& out) override {
    for (const Call& call : calls_) {
      if (call.rep == 0) {
        out.push_back({"explore.call_ms." + Name(call),
                       Ratio(Layer(l, "call_ns." + Name(call)), Layer(l, "calls." + Name(call))) *
                           kMsPerNs,
                       "ms", "layer", "per Explore call"});
      }
    }
    double busy = Layer(l, "run_sec") + Layer(l, "detector_sec");
    double run = Layer(l, "schedules_run");
    out.push_back({"explore.run_share", Ratio(Layer(l, "run_sec"), busy), "ratio", "layer",
                   "of run + detector busy time"});
    out.push_back({"explore.detector_share", Ratio(Layer(l, "detector_sec"), busy), "ratio",
                   "layer", "of run + detector busy time"});
    out.push_back({"explore.sweep_share", Ratio(Layer(l, "sweep_sec"), Layer(l, "total_sec")),
                   "ratio", "layer", "of Explore wall time"});
    out.push_back({"explore.minimize_ms",
                   Ratio(Layer(l, "minimize_sec"), Layer(l, "calls")) * 1e3, "ms", "layer",
                   "per call"});
    out.push_back({"explore.pool_busy_frac",
                   Ratio(busy, Layer(l, "sweep_sec") * workers_), "ratio", "layer",
                   "(run + detector) / (sweep x " + std::to_string(workers_) + " workers)"});
    out.push_back({"explore.distinct_frac", Ratio(Layer(l, "distinct"), run), "ratio", "layer",
                   "base: " + Num(run / passes) + " schedules run per pass"});
    out.push_back({"explore.executed_frac", Ratio(run - Layer(l, "pruned"), run), "ratio",
                   "layer", "base: " + Num(run / passes) + " schedules run per pass"});
    out.push_back({"explore.pruned", Layer(l, "pruned") / passes, "count", "layer", "per pass"});
    out.push_back({"explore.dpor_pruned", Layer(l, "dpor_pruned") / passes, "count", "layer",
                   "per pass"});
    out.push_back({"explore.drain_spliced", Layer(l, "drain_spliced") / passes, "count",
                   "layer", "per pass"});
    out.push_back({"explore.replay_ms", Ratio(Layer(l, "replay_ns"), Layer(l, "replays")) *
                                            kMsPerNs,
                   "ms", "layer", "Replay with capture, per failure"});
    out.push_back({"explore.detector_ns_per_event",
                   Ratio(Layer(l, "detector_ns"), Layer(l, "replay_events")), "ns", "layer",
                   "AnalyzeTrace on captured failure traces"});
    out.push_back({"trace.hash_ns_per_event",
                   Ratio(Layer(l, "hash_ns"), Layer(l, "replay_events")), "ns", "layer",
                   "TraceHash on captured failure traces"});
    out.push_back({"pcr.fiber_switches", Layer(l, "switches") / passes, "count", "layer",
                   "per pass, ExploreProfile"});
    out.push_back({"pcr.stack_pool_hit_frac",
                   Ratio(Layer(l, "stack_pool_hits"), Layer(l, "stack_acquires")), "ratio",
                   "layer", ""});
    out.push_back({"pcr.checkpoint_saves", Layer(l, "checkpoint_saves") / passes, "count",
                   "layer", "per pass"});
    out.push_back({"pcr.checkpoint_resumes", Layer(l, "checkpoint_resumes") / passes, "count",
                   "layer", "per pass"});
    out.push_back({"pcr.checkpoint_mb", Layer(l, "checkpoint_bytes") / passes / 1048576.0, "MB",
                   "layer", "per pass"});
  }

 private:
  struct Call {
    const explore::BugScenario* scenario = nullptr;
    int budget = 0;
    int rep = 0;
    uint64_t seed = 1;
  };

  static std::string Name(const Call& call) {
    return call.scenario->name + "." + std::to_string(call.budget);
  }
  static std::string VirtKey(const Call& call) {
    return "explore." + Name(call) + "." + std::to_string(call.rep);
  }

  static explore::ExploreOptions Options(const Call& call, int workers,
                                         const std::string& ablate) {
    explore::ExploreOptions options = call.scenario->options;
    options.budget = call.budget;
    options.seed = call.seed;
    options.workers = workers;
    ApplyAblation(ablate, &options.dpor, &options.checkpoint);
    return options;
  }

  static std::string Failures(const explore::ExploreResult& result) {
    std::string text;
    for (const explore::ScheduleOutcome& f : result.failures) {
      if (!text.empty()) {
        text += ';';
      }
      text += FailureKey(f);
      text += '#';
      text += Hex(f.trace_hash);
    }
    return text.empty() ? "-" : text;
  }

  int workers_ = 1;
  std::string ablate_;
  std::vector<Call> calls_;
  std::vector<explore::ExploreResult> results_;
};

// ----------------------------------------------------------------------------- campaign

class CampaignWorkload : public Workload {
 public:
  static constexpr int kUnits = 8;
  static constexpr int kRounds = 48;
  static constexpr int kBatch = 16;

  void Setup(const RunOptions& options, Checks& checks) override {
    workers_ = options.workers;
    for (const char* name : kBuiltinScenarios) {
      const explore::BugScenario* scenario = explore::FindScenario(name);
      if (checks.Expect(scenario != nullptr, std::string("campaign: no scenario ") + name)) {
        scenarios_.push_back(*scenario);
        ApplyAblation(options.ablate, &scenarios_.back().options.dpor,
                      &scenarios_.back().options.checkpoint);
      }
    }
    for (int i = 0; i < kUnits; ++i) {
      seeds_.push_back(Mix(options.seed, 3000 + i) % 1000000 + 1);
    }
    // Every unit starts from the same snapshot of the committed corpus; the campaign opens it
    // read-only, so admissions stay in memory and the snapshot stays fresh for the next unit.
    corpus_ = (fs::path(options.work_dir) / "corpus").string();
    std::error_code ec;
    fs::remove_all(corpus_, ec);
    fs::create_directories(corpus_, ec);
    fs::copy(fs::path(options.repo_root) / "tests" / "corpus", corpus_,
             fs::copy_options::recursive | fs::copy_options::overwrite_existing, ec);
    checks.Expect(!ec, "campaign: cannot copy tests/corpus: " + ec.message());
  }

  int units_per_pass() const override { return kUnits; }

  void RunUnit(int index, bool traced, int unit_id, PassResult& pass) override {
    auto stats = std::make_shared<BodyStats>();
    std::vector<explore::BugScenario> scenarios = scenarios_;
    if (traced) {
      for (explore::BugScenario& s : scenarios) {
        // Sound here (unlike under Explore's checkpoint-and-branch): campaign inputs replay
        // from zero, so the wrapper's frame is never rewound mid-body.
        s.body = [inner = s.body, stats, unit_id](pcr::Runtime& rt, explore::TestContext& ctx) {
          ScopedSpan span("pcr.scenario_body", unit_id);
          int64_t t0 = NowNs();
          struct Tally {
            BodyStats& stats;
            pcr::Runtime& rt;
            int64_t t0;
            ~Tally() {
              stats.body_ns += NowNs() - t0;
              stats.bodies += 1;
              stats.events += static_cast<int64_t>(rt.tracer().size());
              stats.switches += rt.scheduler().fiber_switches();
              stats.acquires += rt.scheduler().stack_acquires();
              stats.hits += rt.scheduler().stack_pool_hits();
            }
          } tally{*stats, rt, t0};
          inner(rt, ctx);
        };
      }
    }
    explore::CampaignOptions options;
    options.corpus_dir = corpus_;
    options.read_only = true;
    options.rounds = kRounds;
    options.batch = kBatch;
    options.seed = seeds_[static_cast<size_t>(index)];
    options.workers = workers_;

    int64_t t0 = NowNs();
    explore::CampaignStatus status;
    {
      ScopedSpan span("campaign.run", unit_id);
      Spans::SetRoot(span.id());
      explore::Campaign campaign(std::move(scenarios), options);
      status = campaign.Run();
      Spans::SetRoot(-1);
    }
    int64_t t1 = NowNs();

    const std::string key = "campaign." + std::to_string(index);
    std::string failures;
    for (const std::string& f : status.failure_keys) {
      if (!failures.empty()) {
        failures += ';';
      }
      failures += f;
    }
    pass.virt[key + ".inputs_run"] = std::to_string(status.inputs_run);
    pass.virt[key + ".coverage_points"] = std::to_string(status.coverage_points);
    pass.virt[key + ".corpus_entries"] = std::to_string(status.corpus_entries);
    pass.virt[key + ".crash_entries"] = std::to_string(status.crash_entries);
    pass.virt[key + ".distinct_failures"] = std::to_string(status.distinct_failures);
    pass.virt[key + ".failure_keys"] = Hex(Fnv(failures));
    pass.virt[key + ".ok"] = status.ok() ? "1" : "0";
    pass.virt[key + ".checkpoint_counters"] =
        std::to_string(status.checkpoint_saves + status.checkpoint_resumes +
                       status.checkpoint_bytes + status.pruned_schedules);
    if (!status.ok()) {
      pass.virt[key + ".first_error"] = status.errors.front();
    }
    if (traced) {
      auto& l = pass.layer;
      l["units"] += 1;
      l["wall_ns"] += static_cast<double>(t1 - t0);
      l["inputs"] += static_cast<double>(status.inputs_run);
      l["coverage"] += static_cast<double>(status.coverage_points);
      l["corpus_entries"] += static_cast<double>(status.corpus_entries);
      l["crash_entries"] += static_cast<double>(status.crash_entries);
      l["distinct_failures"] += static_cast<double>(status.distinct_failures);
      l["checkpoint_saves"] += static_cast<double>(status.checkpoint_saves);
      l["checkpoint_resumes"] += static_cast<double>(status.checkpoint_resumes);
      l["checkpoint_bytes"] += static_cast<double>(status.checkpoint_bytes);
      l["body_ns"] += static_cast<double>(stats->body_ns.load());
      l["bodies"] += static_cast<double>(stats->bodies.load());
      l["events"] += static_cast<double>(stats->events.load());
      l["switches"] += static_cast<double>(stats->switches.load());
      l["stack_acquires"] += static_cast<double>(stats->acquires.load());
      l["stack_pool_hits"] += static_cast<double>(stats->hits.load());
    }
  }

  void FinishPass(bool, PassResult&) override {}

  void ExtraChecks(const PassResult& first, bool, Checks& checks,
                   std::map<std::string, double>&) override {
    for (int i = 0; i < kUnits; ++i) {
      const std::string key = "campaign." + std::to_string(i);
      auto error = first.virt.find(key + ".first_error");
      checks.Expect(first.virt.at(key + ".ok") == "1",
                    key + ": CampaignStatus not ok: " +
                        (error == first.virt.end() ? "" : error->second));
      checks.Expect(first.virt.at(key + ".checkpoint_counters") == "0",
                    key + ": checkpoint/pruning counters are not zero on from-zero replays");
    }
  }

  void EndToEnd(const std::vector<PassResult>& passes, double wall_s,
                std::vector<Metric>& out) override {
    const PassResult& pass = passes.front();
    double inputs = 0;
    double coverage = 0;
    for (int i = 0; i < kUnits; ++i) {
      inputs += Get(pass, "campaign." + std::to_string(i) + ".inputs_run");
      coverage += Get(pass, "campaign." + std::to_string(i) + ".coverage_points");
    }
    out.push_back({"campaign_inputs_per_s", inputs / wall_s, "1/s", "host",
                   Num(inputs) + " inputs per pass"});
    out.push_back({"coverage_points", coverage / kUnits, "count", "virtual",
                   "mean per Campaign::Run"});
  }

  void PerLayer(const std::map<std::string, double>& l, int passes,
                std::vector<Metric>& out) override {
    double inputs = Layer(l, "inputs");
    double body = Layer(l, "body_ns");
    out.push_back({"campaign.body_ms_per_input", Ratio(body, inputs) * kMsPerNs, "ms", "layer",
                   Num(Layer(l, "bodies")) + " body runs for " + Num(inputs) + " inputs"});
    out.push_back({"campaign.overhead_share",
                   1 - Ratio(body, Layer(l, "wall_ns") * workers_), "ratio", "layer",
                   "1 - sum(body) / (wall x " + std::to_string(workers_) + " workers)"});
    out.push_back({"campaign.coverage_per_input", Ratio(Layer(l, "coverage"), inputs), "ratio",
                   "layer", ""});
    out.push_back({"campaign.corpus_entries", Ratio(Layer(l, "corpus_entries"), Layer(l, "units")),
                   "count", "layer", "per Campaign::Run"});
    out.push_back({"campaign.crash_entries", Ratio(Layer(l, "crash_entries"), Layer(l, "units")),
                   "count", "layer", "per Campaign::Run"});
    out.push_back({"campaign.distinct_failures",
                   Ratio(Layer(l, "distinct_failures"), Layer(l, "units")), "count", "layer",
                   "per Campaign::Run"});
    out.push_back({"trace.events", Layer(l, "events") / passes, "count", "layer",
                   "per pass, at body return"});
    out.push_back({"trace.events_per_unit", Ratio(Layer(l, "events"), Layer(l, "units")),
                   "count", "layer", ""});
    out.push_back({"pcr.fiber_switches", Layer(l, "switches") / passes, "count", "layer",
                   "per pass, at body return"});
    out.push_back({"pcr.switches_per_event", Ratio(Layer(l, "switches"), Layer(l, "events")),
                   "ratio", "layer", ""});
    out.push_back({"pcr.stack_pool_hit_frac",
                   Ratio(Layer(l, "stack_pool_hits"), Layer(l, "stack_acquires")), "ratio",
                   "layer", ""});
    out.push_back({"pcr.checkpoint_saves", Layer(l, "checkpoint_saves") / passes, "count",
                   "layer", "must be 0"});
    out.push_back({"pcr.checkpoint_resumes", Layer(l, "checkpoint_resumes") / passes, "count",
                   "layer", "must be 0"});
    out.push_back({"pcr.checkpoint_mb", Layer(l, "checkpoint_bytes") / passes / 1048576.0, "MB",
                   "layer", "must be 0"});
  }

 private:
  struct BodyStats {
    std::atomic<int64_t> body_ns{0};
    std::atomic<int64_t> bodies{0};
    std::atomic<int64_t> events{0};
    std::atomic<int64_t> switches{0};
    std::atomic<int64_t> acquires{0};
    std::atomic<int64_t> hits{0};
  };

  int workers_ = 1;
  std::string corpus_;
  std::vector<explore::BugScenario> scenarios_;
  std::vector<uint64_t> seeds_;
};

// ------------------------------------------------------------------------------ service

class Service : public Workload {
 public:
  static constexpr double kRates[] = {1500, 2250, 3000, 3750, 6000};
  static constexpr world::ServiceParadigm kParadigms[] = {world::ServiceParadigm::kSerializer,
                                                          world::ServiceParadigm::kWorkQueue,
                                                          world::ServiceParadigm::kPipeline};
  static constexpr int kDurationSec = 3;

  void Setup(const RunOptions& options, Checks&) override {
    seed_ = Mix(options.seed, 4000) % 1000000 + 1;
  }

  int units_per_pass() const override { return 15; }

  void RunUnit(int index, bool traced, int unit_id, PassResult& pass) override {
    const world::ServiceParadigm paradigm = kParadigms[index / 5];
    const double rate = kRates[index % 5];
    world::ServiceSpec spec;
    spec.clients = 2000;
    spec.shards = 4;
    spec.seed = seed_;
    spec.paradigm = paradigm;
    spec.phases = {{.duration = kDurationSec * pcr::kUsecPerSec, .offered_per_sec = rate}};
    spec.queue_capacity = 256;

    int64_t t_setup = 0;
    int64_t t_inspect_begin = 0;
    int64_t t_inspect_end = 0;
    size_t events = 0;
    int64_t switches = 0;
    int64_t depth = 0;
    int64_t x_requests = 0;
    int64_t x_flushes = 0;
    world::ServiceRunOptions options;
    options.setup = [&](pcr::Runtime&, world::ServiceWorld&) { t_setup = NowNs(); };
    options.inspect = [&](pcr::Runtime& rt, world::ServiceWorld& w) {
      t_inspect_begin = NowNs();
      ScopedSpan inspect("bench.inspect", unit_id);
      events = rt.tracer().size();
      switches = rt.scheduler().fiber_switches();
      for (int s = 0; s < w.shards(); ++s) {
        depth += static_cast<int64_t>(w.shard_depth(s));
        x_requests += w.shard_xserver(s).requests_received();
        x_flushes += w.shard_xserver(s).flushes();
      }
      if (traced) {
        // RunServiceLoad hashes the trace inside its simulate interval; re-time it to subtract.
        ScopedSpan span("trace.hash", unit_id);
        int64_t t0 = NowNs();
        uint64_t hash = explore::TraceHash(rt.tracer());
        (void)hash;
        pass.layer["hash_ns"] += static_cast<double>(NowNs() - t0);
      }
      t_inspect_end = NowNs();
    };

    int unit_span = Spans::Begin("world.service_cell", unit_id);
    int64_t t_start = NowNs();
    world::ServiceRunResult r = world::RunServiceLoad(spec, options);
    int64_t t_end = NowNs();
    Spans::End(unit_span);

    const world::ServiceTotals& t = r.totals;
    const std::string key = CellKey(paradigm, rate);
    pass.virt[key + ".hash"] = Hex(r.trace_hash);
    pass.virt[key + ".events"] = std::to_string(events);
    pass.virt[key + ".arrivals"] = std::to_string(t.arrivals);
    pass.virt[key + ".admitted"] = std::to_string(t.admitted);
    pass.virt[key + ".completed"] = std::to_string(t.completed_interactive + t.completed_bulk);
    pass.virt[key + ".accounted"] = std::to_string(t.completed_interactive + t.completed_bulk +
                                                   t.shed + t.drops + depth);
    pass.virt[key + ".shed_drops"] = std::to_string(t.shed + t.drops);
    pass.virt[key + ".interactive_p99_us"] = std::to_string(r.interactive.p99);
    if (traced) {
      auto& l = pass.layer;
      Spans::Add("world.build", unit_id, unit_span, t_start, t_setup);
      Spans::Add("pcr.simulate", unit_id, unit_span, t_setup, t_inspect_begin);
      Spans::Add("pcr.teardown", unit_id, unit_span, t_inspect_end, t_end);
      l["units"] += 1;
      l["events"] += static_cast<double>(events);
      l["simulate_ns"] += static_cast<double>(t_inspect_begin - t_start);
      l["teardown_ns"] += static_cast<double>(t_end - t_inspect_end);
      l["switches"] += static_cast<double>(switches);
      l["x_requests"] += static_cast<double>(x_requests);
      l["x_flushes"] += static_cast<double>(x_flushes);
      l["arrivals"] += static_cast<double>(t.arrivals);
      l["completed"] += static_cast<double>(t.completed_interactive + t.completed_bulk);
      l["retries"] += static_cast<double>(t.retries);
      l["drops"] += static_cast<double>(t.drops);
      l["rejected_full"] += static_cast<double>(t.rejected_full);
      // Deepest queue of this pass; every pass has the same, so PerLayer averages the maxima.
      l["max_depth"] = std::max(Layer(l, "max_depth"), static_cast<double>(t.max_depth));
    }
  }

  void FinishPass(bool, PassResult& pass) override {
    std::vector<KneeCell> cells;
    double worst_p99 = 0;
    double lost = 0;
    double arrivals = 0;
    for (int p = 0; p < 3; ++p) {
      for (double rate : kRates) {
        const std::string key = CellKey(kParadigms[p], rate);
        KneeCell cell;
        cell.paradigm = p;
        cell.offered_per_sec = rate;
        cell.interactive_p99_us = Get(pass, key + ".interactive_p99_us");
        cell.goodput_per_sec = Get(pass, key + ".completed") / kDurationSec;
        cell.admitted_per_sec = Get(pass, key + ".admitted") / kDurationSec;
        cells.push_back(cell);
        if (rate == 3000) {
          worst_p99 = std::max(worst_p99, cell.interactive_p99_us);
        }
        lost += Get(pass, key + ".shed_drops");
        arrivals += Get(pass, key + ".arrivals");
      }
    }
    pass.virt["service.knee_per_s"] = Num(KneePerSec(cells, kRates[0]));
    pass.virt["service.interactive_p99_us"] = Num(worst_p99);
    pass.virt["service.drop_frac"] = Num(Ratio(lost, arrivals));
  }

  void ExtraChecks(const PassResult& first, bool, Checks& checks,
                   std::map<std::string, double>&) override {
    // Conservation: every arrival is completed, shed, dropped or still queued.
    for (world::ServiceParadigm paradigm : kParadigms) {
      for (double rate : kRates) {
        const std::string key = CellKey(paradigm, rate);
        checks.Expect(first.virt.at(key + ".arrivals") == first.virt.at(key + ".accounted"),
                      key + ": arrivals " + first.virt.at(key + ".arrivals") +
                          " != completed + shed + drops + queued " +
                          first.virt.at(key + ".accounted"));
      }
    }
  }

  void EndToEnd(const std::vector<PassResult>& passes, double wall_s,
                std::vector<Metric>& out) override {
    const PassResult& pass = passes.front();
    double events = 0;
    for (world::ServiceParadigm paradigm : kParadigms) {
      for (double rate : kRates) {
        events += Get(pass, CellKey(paradigm, rate) + ".events");
      }
    }
    out.push_back({"sim_events_per_s", events / wall_s, "events/s", "host",
                   Num(events) + " events per pass"});
    out.push_back({"knee_per_s", Get(pass, "service.knee_per_s"), "req/s", "virtual",
                   "highest offered rate where every paradigm meets the limit"});
    out.push_back({"interactive_p99_us", Get(pass, "service.interactive_p99_us"), "us",
                   "virtual", "at 3000/s, worst paradigm, 500 us buckets"});
    out.push_back({"drop_frac", Get(pass, "service.drop_frac"), "ratio", "virtual",
                   "(drops + shed) / arrivals over the sweep"});
  }

  void PerLayer(const std::map<std::string, double>& l, int passes,
                std::vector<Metric>& out) override {
    double units = Layer(l, "units");
    double events = Layer(l, "events");
    double offers = Layer(l, "arrivals") + Layer(l, "retries");
    out.push_back({"pcr.simulate_ns_per_event",
                   Ratio(Layer(l, "simulate_ns") - Layer(l, "hash_ns"), events), "ns", "layer",
                   "world build + RunFor, re-timed TraceHash subtracted"});
    out.push_back({"pcr.teardown_ms", Ratio(Layer(l, "teardown_ns"), units) * kMsPerNs, "ms",
                   "layer", "inspect hook return to RunServiceLoad return, per cell"});
    out.push_back({"pcr.fiber_switches", Layer(l, "switches") / passes, "count", "layer",
                   "per pass"});
    out.push_back({"pcr.switches_per_event", Ratio(Layer(l, "switches"), events), "ratio",
                   "layer", ""});
    out.push_back({"trace.events", events / passes, "count", "layer", "per pass"});
    out.push_back({"trace.events_per_unit", Ratio(events, units), "count", "layer", ""});
    out.push_back({"trace.hash_ns_per_event", Ratio(Layer(l, "hash_ns"), events), "ns", "layer",
                   "TraceHash in the inspect hook"});
    out.push_back({"world.x_requests_per_flush",
                   Ratio(Layer(l, "x_requests"), Layer(l, "x_flushes")), "ratio", "layer",
                   "virtual"});
    out.push_back({"world.arrivals", Layer(l, "arrivals") / passes, "count", "layer",
                   "per pass"});
    out.push_back({"world.completed", Layer(l, "completed") / passes, "count", "layer",
                   "per pass"});
    out.push_back({"world.retries", Layer(l, "retries") / passes, "count", "layer", "per pass"});
    out.push_back({"world.drops", Layer(l, "drops") / passes, "count", "layer", "per pass"});
    out.push_back({"world.max_depth", Layer(l, "max_depth") / passes, "count", "layer",
                   "deepest shard queue in any cell"});
    out.push_back({"world.reject_full_frac", Ratio(Layer(l, "rejected_full"), offers), "ratio",
                   "layer", "queue-full rejections / (arrivals + retries)"});
  }

 private:
  static std::string CellKey(world::ServiceParadigm paradigm, double rate) {
    return "service." + std::string(world::ServiceParadigmName(paradigm)) + "@" +
           std::to_string(static_cast<int>(rate));
  }

  uint64_t seed_ = 1;
};

}  // namespace

std::unique_ptr<Workload> MakeTables() { return std::make_unique<Tables>(); }
std::unique_ptr<Workload> MakeExplore() { return std::make_unique<Explore>(); }
std::unique_ptr<Workload> MakeCampaign() { return std::make_unique<CampaignWorkload>(); }
std::unique_ptr<Workload> MakeService() { return std::make_unique<Service>(); }

}  // namespace perfbench
