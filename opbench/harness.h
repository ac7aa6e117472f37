// Shared types of the operator benchmark.
//
// A workload owns a fixed, seeded input and knows how to (a) set up the
// state a user pays for before the first unit of work, (b) replay its whole
// input once with every correctness check (the untimed warm-up pass), and
// (c) replay it once more with nothing but the operator calls and cheap
// result capture (a timed pass). The runner in main.cc owns timing, tracing,
// repetition and reporting; workloads never read a clock except to stamp
// unit boundaries.

#ifndef OPBENCH_HARNESS_H_
#define OPBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace opbench {

/// Command-line settings a workload may depend on.
struct Config {
  uint64_t seed = 1;
  /// Small inputs for the self-test: every code path, a fraction of the work.
  bool tiny = false;
  /// Fault injection for the self-test ("" or "program-order").
  std::string inject_fault;
};

/// Correctness-check accumulator. Every failed expectation is counted and
/// the first few are printed to stderr.
class Checks {
 public:
  void Expect(bool ok, const std::string& what);
  void ExpectOk(const bcast::Status& status, const std::string& what);
  int failed() const { return failed_; }

 private:
  int failed_ = 0;
};

/// Host-speed calibration. Other tenants of the host slow this process for
/// stretches of seconds to minutes (README.md, "Noise"), so raw times of one
/// commit differ between runs by more than a regression bound. A fixed kernel
/// that belongs to the benchmark, not to the library, is timed between
/// samples about every 100 ms; its speed relative to a quiet reference host
/// converts each raw interval into reference-host time.
class Calibrator {
 public:
  /// Times one kernel window now; returns the host speed (1 = reference).
  double Window();
  /// The latest window's speed, after a new window if the last one is stale.
  double Speed();
  /// Marks that `samples` samples of the current pass have been recorded,
  /// running a window first when one is due.
  void Mark(size_t samples);
  /// Starts a pass: marks 0 samples.
  void BeginPass();
  /// Ends a pass of `samples` samples with a fresh window. Returns each
  /// sample's speed: the mean of the windows just before and just after it.
  std::vector<double> EndPass(size_t samples);
  /// Speed of every window so far, for the report.
  const std::vector<double>& speeds() const { return speeds_; }

 private:
  std::vector<std::pair<size_t, double>> marks_;  // (samples, speed)
  std::vector<double> speeds_;
  uint64_t last_end_ns_ = 0;
};

/// Result of one timed (or warm-up) pass over the fixed input.
struct PassOutput {
  /// Wall time of each latency sample (catalog, client batch, query batch or
  /// server cycle), in nanoseconds.
  std::vector<uint64_t> sample_ns;
  /// Units of work the samples cover (catalogs, clients, queries or cycles).
  uint64_t units = 0;
  /// Set in calibrated passes. A workload records a sample with AddSample and
  /// reads the clock afresh afterwards, so a calibration window falls
  /// outside every sample.
  Calibrator* calibrator = nullptr;

  void AddSample(uint64_t ns) {
    sample_ns.push_back(ns);
    if (calibrator != nullptr) calibrator->Mark(sample_ns.size());
  }
  /// Deterministic outcome words, compared bit for bit against the warm-up
  /// pass: a mismatch is a correctness failure.
  std::vector<uint64_t> fingerprint;
};

/// Deterministic end-to-end outcome of the fixed input (from the warm-up).
struct Outcome {
  double wait_slots = 0.0;
  double wait_tail_slots = 0.0;
  double success_frac = 0.0;
};

/// Per-layer counts of one counting pass (one set-up plus one pass with a
/// metrics registry installed), keyed by per-layer metric name.
using LayerCounts = std::map<std::string, double>;

/// Everything one set-up produces. Workloads subclass it.
class State {
 public:
  virtual ~State() = default;
  /// A digest of the prepared state; every set-up of one seed must agree.
  virtual std::string Fingerprint() const = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Unit of throughput ("catalog", "client", ...) and of a latency sample.
  virtual const char* unit() const = 0;
  virtual const char* sample() const = 0;
  /// Units in one latency sample (clients per batch, ...).
  virtual double units_per_sample() const = 0;

  /// Builds the state a user pays for before the first timed unit. Called
  /// many times per run.
  virtual bcast::Result<std::unique_ptr<State>> Setup() = 0;

  /// Set-ups timed together as one set-up sample, chosen so that a sample
  /// lasts tens of milliseconds and a single short interval cannot decide it.
  virtual int setups_per_sample() const = 0;

  /// Untimed pass over the fixed input with every correctness check; fills
  /// the deterministic outcome and the reference fingerprint.
  virtual void WarmUp(State* state, Checks* checks, Outcome* outcome,
                      PassOutput* out) = 0;

  /// One timed pass: operator calls and result capture only.
  virtual void Pass(State* state, PassOutput* out) = 0;

  /// Per-layer counts from a snapshot taken after one set-up and one pass
  /// (`pass`) ran with a registry installed.
  virtual void Count(const State& state, const bcast::obs::MetricsSnapshot& snap,
                     const PassOutput& pass, LayerCounts* counts) = 0;
};

std::unique_ptr<Workload> MakeCatalogExact(const Config& config);
std::unique_ptr<Workload> MakeFleetServe(const Config& config);
std::unique_ptr<Workload> MakeClientProbe(const Config& config);
std::unique_ptr<Workload> MakeAdaptiveReplan(const Config& config);

/// Moves the first child of the root ahead of the root in a formatted
/// program (a child bucket broadcast before its parent). The self-test uses
/// it to prove that a corrupted program fails the run.
std::string CorruptProgramOrder(const std::string& program_text);

/// Bit pattern of a double, for exact fingerprint comparison.
uint64_t Bits(double value);

/// Nearest-rank quantile (q in [0, 1]) of unsorted values; 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace opbench

#endif  // OPBENCH_HARNESS_H_
