// fdpbench — the repository benchmark.
//
//   fdpbench --workload NAME --seed N --seconds T --trace 0|1 [--spans DIR]
//   fdpbench --selftest [--spans DIR]
//
// --trace 0 repeats untraced trials of the workload on the seeded input for
// about T seconds and prints the end-to-end metrics (for each time, the
// fastest of the run's repetitions; see run_untraced);
// --trace 1 runs one untraced reference trial and one traced trial and
// prints the per-layer metrics. Either way the last line of stdout is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Lines before
// it, prefixed "# ", are for people.
//
// --selftest runs every workload traced at smoke size and checks that the
// layer spans' self times sum to the traced wall time, that traced and
// untraced trials execute the same actions, and that each workload's own
// layers report work while bypassed layers report none. Exit code 0 = pass.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace fdpbench {
namespace {

/// The layer spans' self times must sum to the traced wall time within
/// this share: the rest is the benchmark's own loop, outside every layer.
constexpr double kReconcileTolerance = 0.02;
/// One set-up sample repeats the workload's set-up until this much set-up
/// time was spent and reports the mean: a microsecond-scale build needs a
/// batch to rise above clock and allocator jitter.
constexpr double kSetupBatchS = 0.02;
/// After each trial, set-up is sampled for this share of the trial's time
/// (at least one sample), so set-up samples see the same machine states as
/// the trials.
constexpr double kSetupShare = 0.15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string spans_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fdpbench: %s\nusage: fdpbench --workload "
               "churn_monitored|live_udp|modelcheck --seed N "
               "--seconds T --trace 0|1 [--spans DIR]\n       fdpbench "
               "--selftest [--spans DIR]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("--seed takes an integer");
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0))
        usage("--seconds takes a positive number");
    } else if (k == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (k == "--spans") {
      a.spans_dir = v;
    } else {
      usage(("unknown flag " + k).c_str());
    }
  }
  return a;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (name == w.name) return &w;
  return nullptr;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // JSON has no infinity; an unresolved lookup's +inf latency prints as
    // the largest double (the run is already marked incorrect).
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1.7976931348623157e308;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string span_path(const Args& a, const char* workload) {
  if (a.spans_dir.empty()) return "";
  std::error_code ec;
  std::filesystem::create_directories(a.spans_dir, ec);
  return a.spans_dir + "/" + workload + "-seed" + std::to_string(a.seed) +
         ".json";
}

// --- --trace 0 ---------------------------------------------------------------

/// Pins the calling thread to each CPU it may use in turn. On a shared host
/// the CPUs differ in speed from moment to moment (the other tenants' load
/// on each moves independently; on the 4-core box this was written on, two
/// copies of one trial pinned to different CPUs at the same time read 0.27
/// s and 0.19 s), so a run that moves its trials over every CPU is more
/// likely to see each of them at its fastest. Restores the original
/// affinity when it goes out of scope.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&orig_);
    if (sched_getaffinity(0, sizeof orig_, &orig_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &orig_)) cpus_.push_back(c);
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof orig_, &orig_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Move the calling thread to the next CPU.
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }

 private:
  cpu_set_t orig_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// One set-up sample: seconds per set-up, averaged over a batch.
double setup_sample(const Workload& wl, const Sizes& z, std::uint64_t seed) {
  double total = 0.0;
  std::size_t n = 0;
  while (total < kSetupBatchS || n == 0) {
    total += wl.setup(z, seed);
    ++n;
  }
  return total / static_cast<double>(n);
}

// The run repeats trials, and set-up samples after each trial, until
// --seconds are used up. Every trial is checked. A time is reported as the
// fastest of its repetitions: the inputs repeat exactly, and the machine's
// other tenants only ever add time (on the shared 4-core box this was
// written on, a fixed CPU loop reads up to 4x slower in bursts lasting
// seconds). For a campaign, each scenario's fastest repetition counts, and
// solve_s is their sum. Medians are printed on the "# " lines.
int run_untraced(const Workload& wl, const Args& a, const Sizes& z) {
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(a.seconds * 1e9);
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Trial> trials;
  std::vector<double> setups;
  CpuRotation cpus;
  for (;;) {
    cpus.next();
    const std::int64_t t0 = now_ns();
    Trial t = wl.untraced(z, a.seed);
    const std::int64_t t1 = now_ns();
    do {
      setups.push_back(setup_sample(wl, z, a.seed));
    } while (static_cast<double>(now_ns() - t1) <
             kSetupShare * static_cast<double>(t1 - t0));
    std::printf("# trial %zu: solve %.4f s, %llu actions, last set-up sample "
                "%.6f s%s%s\n",
                trials.size() + 1, t.solve_s,
                static_cast<unsigned long long>(t.actions), setups.back(),
                t.error.empty() ? "" : " — FAILED: ", t.error.c_str());
    attempted += t.attempted;
    failed += t.failed;
    if (!t.error.empty() || t.failed > 0) correct = false;
    if (!trials.empty() && t.actions != trials.front().actions &&
        wl.deterministic) {
      std::printf("# FAILED: same input, different action count\n");
      correct = false;
    }
    trials.push_back(std::move(t));
    const std::int64_t now = now_ns();
    if (now + (now - t0) > deadline) break;
  }

  // Fastest repetition of every unit (scenario i of every trial).
  std::vector<Unit> best;
  for (const Trial& t : trials) {
    const std::vector<Unit> us =
        t.units.empty() ? std::vector<Unit>{{t.solve_s, t.actions}} : t.units;
    if (best.empty()) best = us;
    for (std::size_t i = 0; i < us.size() && i < best.size(); ++i)
      if (us[i].solve_s < best[i].solve_s) best[i] = us[i];
  }
  double solve = 0.0;
  double actions = 0.0;
  for (const Unit& u : best) {
    solve += u.solve_s;
    actions += static_cast<double>(u.actions);
  }

  std::vector<double> solves;
  std::vector<double> lookups;
  std::vector<double> lags;
  double frames = 0.0;
  double solve_sum = 0.0;
  for (const Trial& t : trials) {
    solves.push_back(t.solve_s);
    lookups.insert(lookups.end(), t.lookup_ms.begin(), t.lookup_ms.end());
    lookups.insert(lookups.end(), t.lookups_unresolved, INFINITY);
    lags.insert(lags.end(), t.lag_ms.begin(), t.lag_ms.end());
    frames += static_cast<double>(t.frames);
    solve_sum += t.solve_s;
  }
  const double setup = *std::min_element(setups.begin(), setups.end());
  const std::vector<Metric> metrics = {
      {"setup_s", setup, "s"},
      {"solve_s", solve, "s"},
      {"actions_per_s", actions / solve, "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
  std::printf("# %s seed %llu: %zu trials, %zu set-up samples, %.1f s; "
              "medians: solve %.4f s, set-up %.6f s\n",
              wl.name, static_cast<unsigned long long>(a.seed), trials.size(),
              setups.size(), secs(start, now_ns()), quantile(solves, 0.5),
              quantile(setups, 0.5));
  if (!lookups.empty()) {
    // live_udp's user-facing service numbers (pooled over trials).
    std::printf("# lookups: %zu resolved+unresolved, p50 %.3f ms, p99 %.3f ms, "
                "generator lag p99 %.3f ms; frames/s %.0f\n",
                lookups.size(), quantile(lookups, 0.5), quantile(lookups, 0.99),
                quantile(lags, 0.99), frames / solve_sum);
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

// --- --trace 1 ---------------------------------------------------------------

struct TracedOutcome {
  bool correct = true;
  Trial untraced;
  Traced traced;
  std::string why;
};

TracedOutcome traced_pair(const Workload& wl, const Args& a, const Sizes& z) {
  TracedOutcome o;
  // Warm-up: keeps first-touch page faults out of the reference trial.
  const Trial warm = wl.untraced(z, a.seed);
  o.untraced = wl.untraced(z, a.seed);
  o.traced = wl.traced(z, a.seed, o.untraced, span_path(a, wl.name));
  Traced& tr = o.traced;
  // Share of the outer stopwatch's traced wall time that no layer span
  // covers. The stopwatch does not read the tracer, so a probe that misses
  // a layer's work (or a layer the map leaves out) shows here.
  const double unattributed = 1.0 - tr.layer_self_s / tr.solve_s;
  set_metric(tr.layer, "bench.trace.solve_s", tr.solve_s);
  set_metric(tr.layer, "bench.trace.overhead",
             tr.solve_s / o.untraced.solve_s - 1.0);
  set_metric(tr.layer, "bench.trace.unattributed_share", unattributed);
  if (!warm.error.empty()) o.why = "warm-up: " + warm.error;
  else if (!o.untraced.error.empty()) o.why = "untraced: " + o.untraced.error;
  else if (!tr.error.empty()) o.why = tr.error;
  else if (wl.deterministic && tr.actions != o.untraced.actions)
    o.why = "traced run executed " + std::to_string(tr.actions) +
            " actions, untraced " + std::to_string(o.untraced.actions);
  else if (wl.deterministic && tr.states != o.untraced.states)
    o.why = "traced model check explored " + std::to_string(tr.states) +
            " states, untraced " + std::to_string(o.untraced.states);
  else if (std::fabs(unattributed) > kReconcileTolerance)
    o.why = "layer self times do not sum to the traced wall time";
  o.correct = o.why.empty() && o.untraced.failed == 0;
  std::printf("# %s traced: untraced solve %.4f s, traced solve %.4f s "
              "(overhead %+.1f%%), layer self sum %.4f s (unattributed "
              "%.3f%%), "
              "actions %llu/%llu%s%s\n",
              wl.name, o.untraced.solve_s, tr.solve_s,
              100.0 * (tr.solve_s / o.untraced.solve_s - 1.0),
              tr.layer_self_s, 100.0 * unattributed,
              static_cast<unsigned long long>(tr.actions),
              static_cast<unsigned long long>(o.untraced.actions),
              o.why.empty() ? "" : " — FAILED: ", o.why.c_str());
  return o;
}

int run_traced(const Workload& wl, const Args& a, const Sizes& z) {
  TracedOutcome o = traced_pair(wl, a, z);
  print_result(o.correct, o.untraced.attempted, o.untraced.failed,
               o.traced.layer);
  return 0;
}

// --- --selftest --------------------------------------------------------------

/// Layer metrics that must be non-zero on each workload (its own layers)
/// and the prefixes that must be zero there (layers it bypasses).
struct Expect {
  const char* workload;
  std::vector<const char*> busy;
  std::vector<const char*> idle_prefixes;
};

int selftest(Args a) {
  const std::vector<Expect> expect = {
      {"churn_monitored",
       {"sim.step.self_ns", "sim.scheduler.ns_per_pick", "core.oracle.calls",
        "analysis.monitor.safety.calls", "analysis.monitor.potential.calls",
        "analysis.monitor.audit.calls"},
       {"net.", "analysis.modelcheck."}},
      {"live_udp",
       {"net.pump.self_ns_per_action", "net.transport.send.ns_per_datagram",
        "net.rx.ns_per_datagram", "core.oracle.calls",
        "analysis.monitor.safety.calls", "analysis.lookup.p50_ms"},
       {"sim.step.", "analysis.modelcheck.", "analysis.monitor.potential."}},
      {"modelcheck",
       {"analysis.modelcheck.rebuild.calls",
        "analysis.modelcheck.self_ns_per_transition", "core.oracle.calls"},
       {"net.", "sim.step.", "analysis.monitor."}},
  };
  const Sizes z = Sizes::smoke();
  int failures = 0;
  for (const Expect& e : expect) {
    const Workload* wl = find_workload(e.workload);
    const TracedOutcome o = traced_pair(*wl, a, z);
    std::vector<std::string> bad;
    if (!o.correct) bad.push_back(o.why.empty() ? "checks failed" : o.why);
    for (const Metric& m : o.traced.layer) {
      for (const char* name : e.busy)
        if (m.name == name && !(m.value > 0)) bad.push_back(m.name + " is 0");
      for (const char* prefix : e.idle_prefixes)
        if (m.name.rfind(prefix, 0) == 0 && m.value != 0)
          bad.push_back(m.name + " should be 0 here");
    }
    std::printf("selftest %-16s %s", e.workload, bad.empty() ? "ok\n" : "FAIL:");
    for (const std::string& b : bad) std::printf(" [%s]", b.c_str());
    if (!bad.empty()) std::printf("\n");
    failures += bad.empty() ? 0 : 1;
  }
  std::printf("selftest: %s (reconciliation tolerance %.1f%%)\n",
              failures == 0 ? "PASS" : "FAIL", 100.0 * kReconcileTolerance);
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace fdpbench

int main(int argc, char** argv) {
  using namespace fdpbench;
  try {
    const Args a = parse(argc, argv);
    if (a.selftest) return selftest(a);
    const Workload* wl = find_workload(a.workload);
    if (wl == nullptr) usage(("unknown workload '" + a.workload + "'").c_str());
    const Sizes z;
    return a.trace ? run_traced(*wl, a, z) : run_untraced(*wl, a, z);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdpbench: %s\n", e.what());
    return 1;
  }
}
