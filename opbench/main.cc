// opbench: the layered operator benchmark.
//
//   opbench --workload NAME --seed N --seconds S --trace 0|1
//           [--tiny] [--inject-fault program-order] [--out-dir DIR]
//           [--source-rev REV]
//
// One run sets the workload up, replays its fixed input once untimed with
// every correctness check, then replays it in timed passes until S seconds
// have passed. Between passes it times set-up samples, each a fixed batch of
// set-ups, spread over the run; their median is setup_s. With --trace 0 it
// converts every sample to reference-host time (Calibrator, harness.h) and
// prints the end-to-end metrics; with --trace 1 it alternates untraced and
// traced passes, adds one counting pass with a metrics registry installed,
// and prints the per-layer metrics. The last line of stdout is always one
// JSON object; the exit code is nonzero when any correctness check failed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace opbench {
namespace {

using bcast::obs::MonotonicNanos;
using bcast::obs::TraceRecorder;

struct Args {
  std::string workload;
  Config config;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string source_rev = "unknown";
};

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},    {"wait_slots", "slots"},
    {"wait_tail_slots", "slots"}, {"success_frac", "fraction"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"tree.parse_ms", "ms"},
    {"core.plan_ms", "ms"},
    {"alloc.nodes_expanded", "count"},
    {"alloc.prune_ratio", "ratio"},
    {"alloc.cutoff_ratio", "ratio"},
    {"alloc.heuristic_ms", "ms"},
    {"alloc.data_tree_expanded", "count"},
    {"alloc.replicate_ms", "ms"},
    {"verify.verify_ms", "ms"},
    {"broadcast.pointers_ms", "ms"},
    {"broadcast.program_format_ms", "ms"},
    {"broadcast.program_parse_ms", "ms"},
    {"broadcast.program_bytes", "bytes"},
    {"popsim.create_ms", "ms"},
    {"popsim.run_ms", "ms"},
    {"popsim.slots_per_client", "slots"},
    {"popsim.tuning_slots", "slots"},
    {"sim.client_create_ms", "ms"},
    {"sim.run_ms", "ms"},
    {"sim.cycle_ms", "ms"},
    {"sim.serve_ms", "ms"},
    {"fault.faults_per_client", "count"},
    {"sim.retries_per_client", "count"},
    {"sim.restarts_per_client", "count"},
    {"sim.scans_per_client", "count"},
    {"workload.rng_draws_per_client", "count"},
    {"workload.estimation_error", "ratio"},
    {"core.degraded_plans", "count"},
    {"exec.worker_busy_pct", "%"},
    {"exec.steals", "count"},
    {"obs.trace_overhead_pct", "%"},
    {"obs.layer_coverage_pct", "%"},
};

// Layer of a span. The benchmark names its own spans after their layer; the
// library's spans are mapped here. Unknown names stay unmapped and count
// against layer coverage.
std::string LayerOf(const std::string& span) {
  static const std::map<std::string, std::string> kLibrary = {
      {"plan", "core.plan"},
      {"plan_many", "core.plan"},
      {"parallel_search.run", "core.plan"},
      {"heuristics.sort", "alloc.heuristic"},
      {"heuristics.shrink", "alloc.heuristic"},
      {"sim.server", "sim.serve"},
      {"sim.adaptive_server", "sim.serve"},
      {"sim.cycle", "sim.serve"},
  };
  static const char* kOwn[] = {
      "tree.parse",       "core.plan",          "verify.verify",
      "broadcast.pointers", "broadcast.program_format",
      "broadcast.program_parse", "alloc.replicate", "popsim.create",
      "popsim.run",       "sim.client_create",  "sim.run",
      "workload.generate",
  };
  auto it = kLibrary.find(span);
  if (it != kLibrary.end()) return it->second;
  for (const char* own : kOwn) {
    if (span == own) return span;
  }
  return "";
}

// Self time per layer: a span's duration minus the time its direct children
// on the same thread cover.
struct LayerTimes {
  std::map<std::string, uint64_t> self_ns;
  std::map<std::string, uint64_t> span_ns;  // inclusive, by span name
  std::map<std::string, uint64_t> spans;    // count, by span name
  uint64_t unmapped_ns = 0;

  void Add(std::vector<TraceRecorder::Event> events) {
    std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
      if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
      if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
      return a.duration_ns > b.duration_ns;
    });
    std::vector<uint64_t> child_ns(events.size(), 0);
    std::vector<size_t> open;
    for (size_t i = 0; i < events.size(); ++i) {
      const auto& e = events[i];
      while (!open.empty()) {
        const auto& top = events[open.back()];
        if (top.thread_id == e.thread_id &&
            e.start_ns + e.duration_ns <= top.start_ns + top.duration_ns) {
          break;
        }
        open.pop_back();
      }
      if (!open.empty()) child_ns[open.back()] += e.duration_ns;
      open.push_back(i);
    }
    for (size_t i = 0; i < events.size(); ++i) {
      const auto& e = events[i];
      const uint64_t self = e.duration_ns - std::min(e.duration_ns, child_ns[i]);
      const std::string layer = LayerOf(e.name);
      if (layer.empty()) {
        unmapped_ns += self;
      } else {
        self_ns[layer] += self;
      }
      span_ns[e.name] += e.duration_ns;
      spans[e.name] += 1;
    }
  }

  uint64_t Total() const {
    uint64_t total = 0;
    for (const auto& [layer, ns] : self_ns) total += ns;
    return total;
  }
};

// What one run measured.
struct Measured {
  // Untraced latency samples and set-up samples (per set-up), in
  // reference-host time and raw. Traced runs are not calibrated.
  std::vector<double> sample_ms, raw_sample_ms;
  std::vector<double> setup_s, raw_setup_s;
  double sampled_ns = 0.0, raw_sampled_ns = 0.0;
  uint64_t sampled_units = 0;
  // Pass wall times, for the tracing overhead.
  uint64_t untraced_units = 0, untraced_ns = 0;
  uint64_t traced_units = 0, traced_ns = 0;
  int passes = 0;
  uint64_t attempted = 0, failed = 0;
  LayerTimes setup_layers, timed_layers;
  int traced_setups = 0;
  std::string chrome_trace;
};

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

// A second seed derived from the first. A performance claim made on one seed
// must also hold on this one.
uint64_t HeldOutSeed(uint64_t seed) { return bcast::MixSeed(seed) & 0x7FFFFFFFu; }

class Runner {
 public:
  Runner(Workload* workload, const Args& args) : w_(*workload), args_(args) {}

  // Runs the whole benchmark; returns false if a correctness check failed.
  bool Run() {
    auto first = w_.Setup();
    if (!first.ok()) {
      checks_.ExpectOk(first.status(), "set-up");
      return false;
    }
    std::unique_ptr<State> state = std::move(first).value();
    fingerprint_ = state->Fingerprint();
    w_.WarmUp(state.get(), &checks_, &outcome_, &golden_);
    // The program's own peak: one set-up and one pass over the input, before
    // the benchmark's sample buffers grow with the host's speed.
    peak_rss_mb_ = PeakRssMb();
    if (checks_.failed() > 0) return false;

    const int samples = args_.config.tiny ? 2 : 21;
    const uint64_t budget = static_cast<uint64_t>(args_.seconds * 1e9);
    const int min_passes = args_.trace ? 2 : 1;
    const uint64_t start = MonotonicNanos();
    int done = 0;
    while (m_.passes < min_passes || MonotonicNanos() - start < budget) {
      TimedPass(state.get(), args_.trace && m_.passes % 2 == 1);
      // The set-up samples are spread over the run so that their median sees
      // the same host conditions as the passes.
      while (done < samples &&
             (MonotonicNanos() - start) * static_cast<uint64_t>(samples) >=
                 budget * static_cast<uint64_t>(done)) {
        SetupSample();
        ++done;
      }
    }
    for (; done < samples; ++done) SetupSample();
    if (args_.trace) CountingPass();
    return checks_.failed() == 0 && m_.failed == 0;
  }

  std::vector<std::pair<MetricDef, double>> EndToEnd() const {
    const double values[] = {
        static_cast<double>(m_.sampled_units) / (m_.sampled_ns * 1e-9),
        Quantile(m_.sample_ms, 0.50),
        Quantile(m_.sample_ms, 0.95),
        outcome_.wait_slots,
        outcome_.wait_tail_slots,
        outcome_.success_frac,
        Median(m_.setup_s),
        peak_rss_mb_,
    };
    std::vector<std::pair<MetricDef, double>> out;
    for (size_t i = 0; i < std::size(kEndToEnd); ++i) out.push_back({kEndToEnd[i], values[i]});
    return out;
  }

  std::vector<std::pair<MetricDef, double>> PerLayer() const {
    LayerCounts values = counts_;
    const double traced_samples =
        static_cast<double>(m_.traced_units) / w_.units_per_sample();
    for (const MetricDef& def : kPerLayer) {
      const std::string name = def.name;
      if (name.size() < 3 || name.compare(name.size() - 3, 3, "_ms") != 0) continue;
      const std::string layer = name.substr(0, name.size() - 3);
      // Milliseconds of self time per latency sample for layers that run in
      // the timed phase, per set-up for layers that run only in set-up.
      auto timed = m_.timed_layers.self_ns.find(layer);
      auto setup = m_.setup_layers.self_ns.find(layer);
      if (timed != m_.timed_layers.self_ns.end() && traced_samples > 0) {
        values[name] = static_cast<double>(timed->second) * 1e-6 / traced_samples;
      } else if (setup != m_.setup_layers.self_ns.end() && m_.traced_setups > 0) {
        values[name] = static_cast<double>(setup->second) * 1e-6 / m_.traced_setups;
      }
    }
    // A server cycle's inclusive time, and its self time minus planning.
    auto cycles = m_.timed_layers.spans.find("sim.cycle");
    if (cycles != m_.timed_layers.spans.end()) {
      values["sim.cycle_ms"] = static_cast<double>(m_.timed_layers.span_ns.at("sim.cycle")) *
                               1e-6 / static_cast<double>(cycles->second);
      values["sim.serve_ms"] = static_cast<double>(m_.timed_layers.self_ns.at("sim.serve")) *
                               1e-6 / static_cast<double>(cycles->second);
    }
    const double untraced_per_unit =
        static_cast<double>(m_.untraced_ns) / static_cast<double>(m_.untraced_units);
    const double traced_per_unit =
        static_cast<double>(m_.traced_ns) / static_cast<double>(m_.traced_units);
    values["obs.trace_overhead_pct"] = 100.0 * (traced_per_unit / untraced_per_unit - 1.0);
    values["obs.layer_coverage_pct"] = LayerCoveragePct();
    std::vector<std::pair<MetricDef, double>> out;
    for (const MetricDef& def : kPerLayer) {
      auto it = values.find(def.name);
      out.push_back({def, it == values.end() ? 0.0 : it->second});
    }
    return out;
  }

  double LayerCoveragePct() const {
    return m_.traced_ns == 0 ? 0.0
                             : 100.0 * static_cast<double>(m_.timed_layers.Total()) /
                                   static_cast<double>(m_.traced_ns);
  }

  const Measured& measured() const { return m_; }
  const Calibrator& calibrator() const { return cal_; }
  const Checks& checks() const { return checks_; }

 private:
  // One set-up sample (traced in a traced run): the workload's batch of
  // set-ups, each timed on its own, checked and discarded outside the timing.
  // The sample is their mean, converted with the host speed measured just
  // before and just after the batch.
  void SetupSample() {
    const int count = w_.setups_per_sample();
    const double speed_before = args_.trace ? 1.0 : cal_.Speed();
    TraceRecorder recorder;
    std::optional<bcast::obs::ScopedObservability> scope;
    if (args_.trace) scope.emplace(nullptr, &recorder);
    uint64_t ns = 0;
    for (int i = 0; i < count; ++i) {
      const uint64_t begin = MonotonicNanos();
      auto state = w_.Setup();
      ns += MonotonicNanos() - begin;
      if (!state.ok()) {
        checks_.ExpectOk(state.status(), "set-up");
        return;
      }
      checks_.Expect((*state)->Fingerprint() == fingerprint_,
                     "a repeated set-up produced a different state");
    }
    scope.reset();
    const double speed = args_.trace ? 1.0 : 0.5 * (speed_before + cal_.Window());
    const double raw_s = static_cast<double>(ns) * 1e-9 / count;
    m_.raw_setup_s.push_back(raw_s);
    m_.setup_s.push_back(raw_s * speed);
    if (args_.trace) {
      m_.setup_layers.Add(recorder.Events());
      m_.traced_setups += count;
    }
  }

  void TimedPass(State* state, bool traced) {
    PassOutput out;
    out.sample_ns.reserve(golden_.fingerprint.size());
    out.fingerprint.reserve(golden_.fingerprint.size());
    if (!args_.trace) {
      out.calibrator = &cal_;
      cal_.BeginPass();
    }
    TraceRecorder recorder;
    std::optional<bcast::obs::ScopedObservability> scope;
    if (traced) scope.emplace(nullptr, &recorder);
    const uint64_t begin = MonotonicNanos();
    w_.Pass(state, &out);
    const uint64_t ns = MonotonicNanos() - begin;
    scope.reset();
    const size_t samples = out.sample_ns.size();
    const std::vector<double> speed =
        args_.trace ? std::vector<double>(samples, 1.0) : cal_.EndPass(samples);

    ++m_.passes;
    m_.attempted += out.sample_ns.size();
    if (out.fingerprint != golden_.fingerprint) {
      size_t mismatched = 0;
      for (size_t i = 0; i < out.fingerprint.size(); ++i) {
        if (i >= golden_.fingerprint.size() || out.fingerprint[i] != golden_.fingerprint[i]) {
          ++mismatched;
        }
      }
      m_.failed += std::max<size_t>(mismatched, 1);
      checks_.Expect(false, "a timed pass disagreed with the warm-up pass");
    }
    if (traced) {
      m_.traced_ns += ns;
      m_.traced_units += out.units;
      m_.timed_layers.Add(recorder.Events());
      if (m_.chrome_trace.empty()) {
        m_.chrome_trace = bcast::obs::FormatChromeTraceJson(recorder);
      }
    } else {
      m_.untraced_ns += ns;
      m_.untraced_units += out.units;
      m_.sampled_units += out.units;
      for (size_t i = 0; i < samples; ++i) {
        const double raw_ns = static_cast<double>(out.sample_ns[i]);
        m_.raw_sampled_ns += raw_ns;
        m_.sampled_ns += raw_ns * speed[i];
        m_.raw_sample_ms.push_back(raw_ns * 1e-6);
        m_.sample_ms.push_back(raw_ns * speed[i] * 1e-6);
      }
    }
  }

  // One set-up plus one pass with a metrics registry installed: the library's
  // counters, and a check that observing does not change any outcome.
  void CountingPass() {
    bcast::obs::Registry registry;
    bcast::obs::ScopedObservability scope(&registry, nullptr);
    auto state = w_.Setup();
    if (!state.ok()) {
      checks_.ExpectOk(state.status(), "counting set-up");
      return;
    }
    PassOutput out;
    w_.Pass(state->get(), &out);
    checks_.Expect(out.fingerprint == golden_.fingerprint,
                   "the counting pass disagreed with the warm-up pass");
    const bcast::obs::MetricsSnapshot snap = registry.Snapshot();
    auto c = [&](const char* name) { return static_cast<double>(snap.CounterOr(name, 0)); };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

    counts_["alloc.nodes_expanded"] = c("search.topo_dfs.nodes_expanded");
    double pruned = 0.0;
    for (const char* rule : {"property1", "property2", "property3", "lemma3", "lemma4",
                             "lemma5", "lemma6", "corollary2"}) {
      pruned += c((std::string("pruning.") + rule).c_str());
    }
    counts_["alloc.prune_ratio"] = ratio(pruned, c("pruning.generated"));
    counts_["alloc.cutoff_ratio"] = ratio(c("search.topo_dfs.bound_cutoffs"),
                                          c("search.topo_dfs.nodes_generated"));
    counts_["alloc.data_tree_expanded"] = c("search.data_tree.nodes_expanded");
    counts_["core.degraded_plans"] = c("planner.degraded.anytime") +
                                     c("planner.degraded.heuristic") +
                                     c("planner.degraded.stale");
    counts_["exec.steals"] = c("pool.steals");

    // The fleet and the client simulator report the same recovery ladder
    // under their own prefixes; a workload exercises one of them.
    const double clients = c("popsim.clients") + c("sim.queries");
    counts_["popsim.slots_per_client"] = ratio(c("popsim.slots_processed"), c("popsim.clients"));
    for (const auto& h : snap.histograms) {
      if (h.name == "popsim.tuning_slots" && h.count > 0) {
        counts_["popsim.tuning_slots"] =
            static_cast<double>(h.sum) / static_cast<double>(h.count);
      }
    }
    counts_["fault.faults_per_client"] =
        ratio(c("popsim.buckets_lost") + c("popsim.buckets_corrupted") +
                  c("sim.buckets_lost") + c("sim.buckets_corrupted"),
              clients);
    counts_["sim.retries_per_client"] = ratio(c("popsim.retries") + c("sim.retries"), clients);
    counts_["sim.restarts_per_client"] =
        ratio(c("popsim.cycle_restarts") + c("sim.cycle_restarts"), clients);
    counts_["sim.scans_per_client"] =
        ratio(c("popsim.sequential_scans") + c("sim.sequential_scans"), clients);
    counts_["workload.rng_draws_per_client"] =
        ratio(c("rng.draws.query") + c("rng.draws.fault"), clients);
    w_.Count(**state, snap, out, &counts_);
  }

  Workload& w_;
  const Args& args_;
  Checks checks_;
  Outcome outcome_;
  PassOutput golden_;
  std::string fingerprint_;
  Measured m_;
  Calibrator cal_;
  LayerCounts counts_;
  double peak_rss_mb_ = 0.0;
};

void AppendMetrics(bcast::obs::JsonWriter* json,
                   const std::vector<std::pair<MetricDef, double>>& metrics) {
  json->BeginObject();
  for (const auto& [def, value] : metrics) {
    json->Key(def.name);
    json->BeginObject();
    json->Key("value");
    json->Double(value);
    json->Key("unit");
    json->String(def.unit);
    json->EndObject();
  }
  json->EndObject();
}

// The full report: provenance, sample counts, metrics and (traced) the
// per-layer self-time summary.
std::string FormatReport(const Args& args, const Workload& workload,
                         const Runner& runner, bool correct,
                         const std::vector<std::pair<MetricDef, double>>& metrics) {
  const Measured& m = runner.measured();
  std::string out;
  bcast::obs::JsonWriter json(&out);
  json.BeginObject();
  json.Key("workload");
  json.String(args.workload);
  json.Key("seed");
  json.UInt(args.config.seed);
  json.Key("held_out_seed");
  json.UInt(HeldOutSeed(args.config.seed));
  json.Key("seconds");
  json.Double(args.seconds);
  json.Key("trace");
  json.Bool(args.trace);
  json.Key("tiny");
  json.Bool(args.config.tiny);
  json.Key("host");
  json.BeginObject();
  json.Key("cpu_model");
  json.String(CpuModel());
  json.Key("nproc");
  json.UInt(std::thread::hardware_concurrency());
  json.Key("compiler");
  json.String(OPBENCH_COMPILER);
  json.Key("build_type");
  json.String(OPBENCH_BUILD_TYPE);
  json.Key("source_rev");
  json.String(args.source_rev);
  json.EndObject();
  json.Key("samples");
  json.BeginObject();
  json.Key("throughput_unit");
  json.String(workload.unit());
  json.Key("latency_sample");
  json.String(workload.sample());
  json.Key("latency");
  json.UInt(m.sample_ms.size());
  json.Key("latency_beyond_p95");
  json.UInt(m.sample_ms.size() - static_cast<size_t>(0.95 * m.sample_ms.size()));
  json.Key("setup");
  json.UInt(m.setup_s.size());
  json.Key("setups_per_setup_sample");
  json.UInt(static_cast<uint64_t>(workload.setups_per_sample()));
  json.Key("passes");
  json.UInt(static_cast<uint64_t>(m.passes));
  json.EndObject();
  json.Key("correct");
  json.Bool(correct);
  json.Key("checks_failed");
  json.UInt(static_cast<uint64_t>(runner.checks().failed()));
  json.Key("metrics");
  AppendMetrics(&json, metrics);
  if (!args.trace && !m.raw_sample_ms.empty()) {
    // The end-to-end times before conversion to reference-host time, and the
    // host speeds that converted them.
    json.Key("raw");
    json.BeginObject();
    json.Key("throughput_per_s");
    json.Double(static_cast<double>(m.sampled_units) / (m.raw_sampled_ns * 1e-9));
    json.Key("latency_p50_ms");
    json.Double(Quantile(m.raw_sample_ms, 0.50));
    json.Key("latency_p95_ms");
    json.Double(Quantile(m.raw_sample_ms, 0.95));
    json.Key("setup_s");
    json.Double(Median(m.raw_setup_s));
    json.EndObject();
    const std::vector<double>& speeds = runner.calibrator().speeds();
    json.Key("host_speed");
    json.BeginObject();
    json.Key("windows");
    json.UInt(speeds.size());
    for (const auto& [name, q] : {std::pair{"p05", 0.05}, {"p50", 0.5}, {"p95", 0.95}}) {
      json.Key(name);
      json.Double(Quantile(speeds, q));
    }
    json.EndObject();
  }
  if (args.trace) {
    json.Key("layers");
    json.BeginObject();
    for (const auto* layers : {&m.setup_layers, &m.timed_layers}) {
      json.Key(layers == &m.setup_layers ? "setup_self_ms" : "timed_self_ms");
      json.BeginObject();
      for (const auto& [layer, ns] : layers->self_ns) {
        json.Key(layer);
        json.Double(static_cast<double>(ns) * 1e-6);
      }
      json.Key("(unmapped)");
      json.Double(static_cast<double>(layers->unmapped_ns) * 1e-6);
      json.EndObject();
    }
    json.Key("traced_ms");
    json.Double(static_cast<double>(m.traced_ns) * 1e-6);
    json.EndObject();
  }
  json.EndObject();
  return out;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--tiny") {
      args->config.tiny = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return false;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->config.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::string(v) == "1";
    } else if (flag == "--inject-fault") {
      args->config.inject_fault = v;
    } else if (flag == "--out-dir") {
      args->out_dir = v;
    } else if (flag == "--source-rev") {
      args->source_rev = v;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 &&
         (args->config.inject_fault.empty() || args->config.inject_fault == "program-order");
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: opbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--tiny] [--inject-fault program-order] [--out-dir DIR] "
                 "[--source-rev REV]\n");
    return 2;
  }
  std::unique_ptr<Workload> workload;
  if (args.workload == "catalog_exact") {
    workload = MakeCatalogExact(args.config);
  } else if (args.workload == "fleet_serve") {
    workload = MakeFleetServe(args.config);
  } else if (args.workload == "client_probe") {
    workload = MakeClientProbe(args.config);
  } else if (args.workload == "adaptive_replan") {
    workload = MakeAdaptiveReplan(args.config);
  } else {
    std::fprintf(stderr, "opbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Runner runner(workload.get(), args);
  bool correct = runner.Run();
  const Measured& m = runner.measured();
  if (correct && args.trace && runner.LayerCoveragePct() < 90.0) {
    std::fprintf(stderr, "opbench: layer coverage %.1f%% is below 90%%\n",
                 runner.LayerCoveragePct());
    correct = false;
  }
  const auto metrics = correct || m.passes > 0
                           ? (args.trace ? runner.PerLayer() : runner.EndToEnd())
                           : std::vector<std::pair<MetricDef, double>>{};

  const std::string base = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.config.seed) + (args.trace ? "-trace" : "");
  const std::string report = FormatReport(args, *workload, runner, correct, metrics);
  bcast::Status written = bcast::obs::WriteTextFile(base + ".json", report);
  if (written.ok() && args.trace && !m.chrome_trace.empty()) {
    written = bcast::obs::WriteTextFile(base + ".chrome.json", m.chrome_trace);
  }
  if (!written.ok()) {
    std::fprintf(stderr, "opbench: %s\n", written.ToString().c_str());
  }

  std::printf("opbench %s seed=%llu held_out_seed=%llu: %zu %s samples, %d passes, "
              "%zu set-up samples; report %s.json\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.config.seed),
              static_cast<unsigned long long>(HeldOutSeed(args.config.seed)),
              m.sample_ms.size(), workload->sample(), m.passes, m.setup_s.size(),
              base.c_str());
  for (const auto& [def, value] : metrics) {
    std::printf("  %-32s %.6g %s\n", def.name, value, def.unit);
  }
  std::string line;
  bcast::obs::JsonWriter json(&line, bcast::obs::JsonWriter::Layout::kCompact);
  json.BeginObject();
  json.Key("correct");
  json.Bool(correct);
  json.Key("attempted");
  json.UInt(std::max<uint64_t>(m.attempted, 1));
  json.Key("failed");
  json.UInt(correct ? m.failed : std::max<uint64_t>(m.failed, 1));
  json.Key("metrics");
  AppendMetrics(&json, metrics);
  json.EndObject();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return correct && written.ok() ? 0 : 1;
}

}  // namespace
}  // namespace opbench

int main(int argc, char** argv) { return opbench::Main(argc, argv); }
