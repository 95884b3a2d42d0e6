// The benchmark workloads and the vocabulary they share.
//
// Every workload offers two kinds of trial on the same seeded input:
//  * an untraced trial, through the entry points the experiments use
//    (run_to_legitimacy, build_live_framework_scenario + NetRuntime::pump,
//    ModelChecker::run) with no probe attached — the end-to-end numbers;
//  * a traced trial, the same execution driven through the public
//    interfaces with the layer probes of layers.hpp attached — the
//    per-layer numbers. It must execute the same number of actions as the
//    untraced trial wherever the engine is deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace fdpbench {

/// SafetyMonitor / PotentialMonitor stride on churn_monitored, in actions.
inline constexpr std::uint64_t kMonitorStride = 16;
/// Processes per churn_monitored scenario.
inline constexpr std::size_t kMonitoredN = 64;
/// modelcheck's in-flight message bound (1 would consult no oracle).
inline constexpr std::size_t kMcInflight = 2;

/// Input sizes. A trial takes about 4 s (churn_monitored), 2 s (live_udp)
/// or 0.2 s (modelcheck) on the 4-core box the benchmark was written on.
/// Every scenario is kept short, so that a run repeats it often enough for
/// its fastest repetition to be steady (see run_untraced).
struct Sizes {
  std::size_t monitored_scenarios = 48;
  std::size_t live_n = 256;
  std::size_t live_scenarios = 3;
  /// Below the rate at which lookups stall departures (see README).
  double lookup_rate_per_s = 400.0;
  /// Small inputs for the reconciliation self-test.
  static Sizes smoke();
};

/// One scenario of a trial: its solve time and executed actions.
struct Unit {
  double solve_s = 0.0;
  std::uint64_t actions = 0;
};

/// Outcome of one untraced trial.
struct Trial {
  double solve_s = 0.0;  ///< execution start to objective
  std::uint64_t actions = 0;
  /// A campaign's scenarios in order (accumulate fills it); empty for a
  /// single-scenario trial, which is its own one unit.
  std::vector<Unit> units;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;  ///< first failed check; empty when correct

  // live_udp only
  std::uint64_t frames = 0;  ///< delivered frames
  std::vector<double> lookup_ms;
  std::vector<double> lag_ms;
  std::uint64_t lookups_unresolved = 0;
  std::uint64_t lookup_resends = 0;
  // modelcheck only
  std::uint64_t states = 0;
  // churn_* and modelcheck: World::footprint(capacity) / processes
  double bytes_per_process = 0.0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one traced trial: the per-layer metrics it measured (names
/// from the README's layer map) plus the bookkeeping the reconciliation
/// self-test checks.
struct Traced {
  double solve_s = 0.0;        ///< traced wall time, outer stopwatch
  double layer_self_s = 0.0;   ///< self time of every layer span
  std::uint64_t actions = 0;
  std::uint64_t states = 0;     ///< modelcheck only
  std::vector<Metric> layer;
  std::string error;
};

using UntracedFn = Trial (*)(const Sizes&, std::uint64_t seed);
using TracedFn = Traced (*)(const Sizes&, std::uint64_t seed,
                            const Trial& untraced, const std::string& span_path);

/// Setup-only run (the scenario build alone), seconds.
using SetupFn = double (*)(const Sizes&, std::uint64_t seed);

struct Workload {
  const char* name;
  SetupFn setup;
  UntracedFn untraced;
  TracedFn traced;
  /// Whether traced and untraced trials must execute identical action
  /// counts (false where the engine is not deterministic: live UDP).
  bool deterministic;
};

[[nodiscard]] const std::vector<Workload>& workloads();

// Per-workload entry points (churn.cpp, live.cpp, modelcheck_wl.cpp).
double churn_monitored_setup(const Sizes&, std::uint64_t seed);
Trial churn_monitored_untraced(const Sizes&, std::uint64_t seed);
Traced churn_monitored_traced(const Sizes&, std::uint64_t seed, const Trial&,
                              const std::string& span_path);
double live_udp_setup(const Sizes&, std::uint64_t seed);
Trial live_udp_untraced(const Sizes&, std::uint64_t seed);
Traced live_udp_traced(const Sizes&, std::uint64_t seed, const Trial&,
                       const std::string& span_path);
double modelcheck_setup(const Sizes&, std::uint64_t seed);
Trial modelcheck_untraced(const Sizes&, std::uint64_t seed);
Traced modelcheck_traced(const Sizes&, std::uint64_t seed, const Trial&,
                         const std::string& span_path);

// --- shared helpers ---

/// Seconds between two steady-clock nanosecond stamps.
[[nodiscard]] inline double secs(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}
/// Linear-interpolated quantile q in [0,1] of `v` (copied, sorted).
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// Seed of scenario i of a campaign (a trial made of several scenarios,
/// so that one input's quirks average out).
[[nodiscard]] inline std::uint64_t campaign_seed(std::uint64_t seed,
                                                 std::size_t i) {
  return seed * 64 + i;
}
/// Add one scenario's outcome to a campaign's: times, counts and samples
/// sum, the scenario becomes the campaign's next unit; the first error
/// wins.
void accumulate(Trial& sum, const Trial& t);

/// Per-layer metrics every workload reports, zero where the layer is
/// bypassed. Order is the README's layer map order.
[[nodiscard]] std::vector<Metric> layer_metric_template();
/// Set metric `name` in `ms` (must exist in the template).
void set_metric(std::vector<Metric>& ms, const std::string& name, double v);

class Tracer;
/// Fill `tr`'s traced wall time (`solve_s`, from an outer stopwatch) and
/// the self time of every layer span in `tracer` (spans named "bench.*"
/// are the benchmark's own loop, not a layer), and write the spans to
/// `span_path` (if non-empty).
void finish_traced(Traced& tr, const Tracer& tracer, double solve_s,
                   const std::string& span_path);

}  // namespace fdpbench
