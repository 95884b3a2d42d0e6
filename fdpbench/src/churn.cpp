// churn_monitored: the E12 gnp departure campaign on the classic
// per-action loop with SafetyMonitor, PotentialMonitor and PrimitiveAuditor
// on.
#include <algorithm>
#include <memory>

#include "analysis/experiment.hpp"
#include "analysis/monitors.hpp"
#include "analysis/scenario.hpp"
#include "core/oracle.hpp"
#include "core/potential.hpp"
#include "core/primitives.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fdpbench {

namespace {

using fdp::ExperimentSpec;
using fdp::RunResult;
using fdp::Scenario;
using fdp::ScenarioConfig;

// Action budget per process. A run that reaches neither legitimacy nor a
// terminal configuration within it fails instead of running on; legitimate
// runs need at most ~160.
constexpr std::uint64_t kClassicStepsPerProcess = 1000;

// The E12 churn shape: sparse random overlay, 30% leavers, 30% corrupted
// mode knowledge, one initial in-flight message per node, SINGLE oracle.
ScenarioConfig churn_config(std::size_t n, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.topology = "gnp";
  cfg.leave_fraction = 0.3;
  cfg.invalid_mode_prob = 0.3;
  cfg.inflight_per_node = 1.0;
  cfg.oracle = "single";
  cfg.seed = seed;
  return cfg;
}

ExperimentSpec monitored_spec(std::uint64_t seed) {
  return ExperimentSpec()
      .scenario(fdp::ScenarioSpec{fdp::ScenarioFamily::Departure,
                                  churn_config(kMonitoredN, seed), ""})
      .scheduler(fdp::SchedulerSpec::of(fdp::SchedulerKind::Random))
      .monitors(true, kMonitorStride)
      .max_steps(kClassicStepsPerProcess * kMonitoredN);
}

// run_to_legitimacy's cheap termination test under the spec's exclusion.
bool leavers_done(const fdp::World& w, const ExperimentSpec& spec) {
  return spec.exclusion() == fdp::Exclusion::Gone ? fdp::all_leaving_gone(w)
                                                  : fdp::all_leaving_inactive(w);
}

double bytes_per_process(const fdp::World& w) {
  return static_cast<double>(w.footprint(/*capacity=*/true).total()) /
         static_cast<double>(w.size());
}

// The checks of a churn scenario: every leaver gone, legitimacy reached,
// and the monitor and audit verdicts.
Trial untraced_trial(const ExperimentSpec& spec) {
  Trial t;
  Scenario sc = fdp::build_departure_scenario(spec.scenario().config);
  const std::int64_t start = now_ns();
  const RunResult r = fdp::run_to_legitimacy(sc, spec);
  t.solve_s = secs(start, now_ns());
  t.actions = r.steps;
  t.bytes_per_process = bytes_per_process(*sc.world);
  t.attempted = sc.leaving_count;
  t.failed = sc.leaving_count - std::min<std::uint64_t>(r.exits, sc.leaving_count);
  const int verdicts_failed = (r.safety_ok ? 0 : 1) + (r.phi_monotone ? 0 : 1) +
                              (r.audit_ok ? 0 : 1) +
                              (r.reached_legitimate ? 0 : 1);
  t.failed += static_cast<std::uint64_t>(verdicts_failed);
  if (!r.failure.empty())
    t.error = r.failure;
  else if (t.failed > 0)
    t.error = "leavers left behind or a monitor verdict failed";
  return t;
}

}  // namespace

// --- churn_monitored ---------------------------------------------------------

double churn_monitored_setup(const Sizes& z, std::uint64_t seed) {
  double total = 0.0;
  for (std::size_t i = 0; i < z.monitored_scenarios; ++i) {
    const std::int64_t t0 = now_ns();
    Scenario sc = fdp::build_departure_scenario(
        churn_config(kMonitoredN, campaign_seed(seed, i)));
    total += secs(t0, now_ns());
  }
  return total;
}

// A trial is a campaign of z.monitored_scenarios scenarios: summing over
// several keeps one seed's quirks out of the timing.
Trial churn_monitored_untraced(const Sizes& z, std::uint64_t seed) {
  Trial sum;
  for (std::size_t i = 0; i < z.monitored_scenarios; ++i)
    accumulate(sum, untraced_trial(monitored_spec(campaign_seed(seed, i))));
  return sum;
}

namespace {

// run_to_legitimacy's classic loop through World's public API: the same
// scheduler, the same monitors in the same order, termination checked
// every check_every steps. Returns whether legitimacy was reached with
// every monitor verdict holding.
bool traced_classic_run(fdp::World& w, const ExperimentSpec& spec,
                        Tracer& tracer) {
  {
    Scope s(&tracer, "core.potential", true);
    (void)fdp::phi(w);
  }
  std::unique_ptr<fdp::LegitimacyChecker> checker;
  {
    Scope s(&tracer, "core.legitimacy", true);
    checker = std::make_unique<fdp::LegitimacyChecker>(w, spec.exclusion());
  }
  TimedScheduler sched(spec.scheduler().make(), tracer);
  std::unique_ptr<fdp::SafetyMonitor> safety;
  std::unique_ptr<fdp::PotentialMonitor> pot;
  fdp::PrimitiveAuditor audit;
  {
    Scope s(&tracer, "analysis.monitor.safety", true);
    safety = std::make_unique<fdp::SafetyMonitor>(w, spec.monitor_stride());
  }
  {
    Scope s(&tracer, "analysis.monitor.potential", true);
    pot = std::make_unique<fdp::PotentialMonitor>(w, spec.monitor_stride());
  }
  TimedObserver t_safety(*safety, "analysis.monitor.safety", tracer);
  TimedObserver t_pot(*pot, "analysis.monitor.potential", tracer);
  TimedObserver t_audit(audit, "analysis.monitor.audit", tracer);
  w.add_observer(&t_safety);
  w.add_observer(&t_pot);
  w.add_observer(&t_audit);
  bool legit = false;
  while (w.steps() < spec.max_steps()) {
    {
      Scope s(&tracer, "core.legitimacy", true);
      if (leavers_done(w, spec) && checker->legitimate(w)) {
        legit = true;
        break;
      }
    }
    bool progressed = false;
    Scope block(&tracer, "bench.step_block", false);
    for (std::uint64_t i = 0; i < spec.check_every(); ++i) {
      bool ok = false;
      {
        Scope s(&tracer, "sim.step", true);
        ok = w.step(sched);
      }
      if (!ok) break;
      progressed = true;
      if (w.steps() >= spec.max_steps()) break;
    }
    if (!progressed) break;
  }
  {
    Scope s(&tracer, "core.potential", true);
    (void)fdp::phi(w);
  }
  w.remove_observer(&t_safety);
  w.remove_observer(&t_pot);
  w.remove_observer(&t_audit);
  return legit && safety->ok() && pot->ok() && audit.ok();
}

}  // namespace

Traced churn_monitored_traced(const Sizes& z, std::uint64_t seed,
                              const Trial& untraced,
                              const std::string& span_path) {
  Traced tr;
  std::vector<Metric> m = layer_metric_template();
  Tracer tracer;
  OracleProbe probe(tracer);
  double solve_s = 0.0;
  for (std::size_t i = 0; i < z.monitored_scenarios; ++i) {
    const ExperimentSpec spec = monitored_spec(campaign_seed(seed, i));
    const ScenarioConfig& cfg = spec.scenario().config;
    Scenario sc = fdp::build_departure_scenario(cfg);
    fdp::World& w = *sc.world;
    w.set_oracle(probe.wrap(fdp::oracle_by_name(cfg.oracle)));
    const std::int64_t t0 = now_ns();
    tracer.open("bench.solve");
    const bool ok = traced_classic_run(w, spec, tracer);
    tracer.close();
    solve_s += secs(t0, now_ns());
    tr.actions += w.steps();
    if (!ok && tr.error.empty())
      tr.error = "traced run failed a monitor verdict or legitimacy";
  }
  finish_traced(tr, tracer, solve_s, span_path);

  const auto tot = tracer.totals();
  const auto get = [&tot](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end() ? Tracer::Totals{} : it->second;
  };
  const double steps = static_cast<double>(std::max<std::uint64_t>(tr.actions, 1));
  set_metric(m, "sim.step.self_ns", static_cast<double>(get("sim.step").self) / steps);
  const Tracer::Totals picks = get("sim.scheduler");
  set_metric(m, "sim.scheduler.ns_per_pick",
             picks.count > 0 ? static_cast<double>(picks.busy) /
                                   static_cast<double>(picks.count)
                             : 0.0);
  set_metric(m, "sim.world.bytes_per_process", untraced.bytes_per_process);
  const double calls = static_cast<double>(probe.calls());
  set_metric(m, "core.oracle.calls", calls);
  set_metric(m, "core.oracle.ns_per_call",
             calls > 0 ? static_cast<double>(probe.ns()) / calls : 0.0);
  const double solve_ns = tr.solve_s * 1e9;
  for (const char* mon : {"safety", "potential", "audit"}) {
    const std::string span = std::string("analysis.monitor.") + mon;
    const Tracer::Totals t = get(span.c_str());
    set_metric(m, span + ".busy_share", static_cast<double>(t.busy) / solve_ns);
    set_metric(m, span + ".calls", static_cast<double>(t.count));
  }
  tr.layer = std::move(m);
  return tr;
}

}  // namespace fdpbench
