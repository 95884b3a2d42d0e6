#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "trace.hpp"

namespace fdpbench {

Sizes Sizes::smoke() {
  Sizes z;
  z.monitored_scenarios = 2;
  z.live_n = 32;
  z.live_scenarios = 2;
  z.lookup_rate_per_s = 200.0;
  return z;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"churn_monitored", churn_monitored_setup, churn_monitored_untraced,
       churn_monitored_traced, true},
      {"live_udp", live_udp_setup, live_udp_untraced, live_udp_traced, false},
      {"modelcheck", modelcheck_setup, modelcheck_untraced, modelcheck_traced,
       true},
  };
  return all;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (std::isinf(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void accumulate(Trial& sum, const Trial& t) {
  sum.solve_s += t.solve_s;
  sum.actions += t.actions;
  sum.units.push_back({t.solve_s, t.actions});
  sum.attempted += t.attempted;
  sum.failed += t.failed;
  sum.frames += t.frames;
  sum.lookup_ms.insert(sum.lookup_ms.end(), t.lookup_ms.begin(),
                       t.lookup_ms.end());
  sum.lag_ms.insert(sum.lag_ms.end(), t.lag_ms.begin(), t.lag_ms.end());
  sum.lookups_unresolved += t.lookups_unresolved;
  sum.lookup_resends += t.lookup_resends;
  sum.states += t.states;
  sum.bytes_per_process = std::max(sum.bytes_per_process, t.bytes_per_process);
  if (sum.error.empty()) sum.error = t.error;
}

std::vector<Metric> layer_metric_template() {
  return {
      {"sim.world.bytes_per_process", 0, "B"},
      {"sim.step.self_ns", 0, "ns"},
      {"sim.scheduler.ns_per_pick", 0, "ns"},
      {"core.oracle.calls", 0, "count"},
      {"core.oracle.ns_per_call", 0, "ns"},
      {"analysis.monitor.safety.busy_share", 0, "ratio"},
      {"analysis.monitor.safety.calls", 0, "count"},
      {"analysis.monitor.potential.busy_share", 0, "ratio"},
      {"analysis.monitor.potential.calls", 0, "count"},
      {"analysis.monitor.audit.busy_share", 0, "ratio"},
      {"analysis.monitor.audit.calls", 0, "count"},
      {"net.pump.idle_ratio", 0, "ratio"},
      {"net.pump.self_ns_per_action", 0, "ns"},
      {"net.transport.send.ns_per_datagram", 0, "ns"},
      {"net.transport.send.refused", 0, "count"},
      {"net.transport.poll.wait_s", 0, "s"},
      {"net.transport.poll.self_ns_per_datagram", 0, "ns"},
      {"net.rx.ns_per_datagram", 0, "ns"},
      {"net.transport.syscalls_per_frame", 0, "ratio"},
      {"net.transport.frames_per_datagram", 0, "ratio"},
      {"net.retransmits", 0, "count"},
      {"net.stale_frames", 0, "count"},
      {"net.throttle_skips", 0, "count"},
      {"net.frames_per_s", 0, "1/s"},
      {"analysis.lookup.p50_ms", 0, "ms"},
      {"analysis.lookup.p99_ms", 0, "ms"},
      {"analysis.lookup.lag_p99_ms", 0, "ms"},
      {"analysis.lookup.resends", 0, "count"},
      {"analysis.modelcheck.rebuild.calls", 0, "count"},
      {"analysis.modelcheck.rebuild.ns_per_call", 0, "ns"},
      {"analysis.modelcheck.self_ns_per_transition", 0, "ns"},
      {"bench.trace.solve_s", 0, "s"},
      {"bench.trace.overhead", 0, "ratio"},
      {"bench.trace.unattributed_share", 0, "ratio"},
  };
}

void set_metric(std::vector<Metric>& ms, const std::string& name, double v) {
  for (Metric& m : ms) {
    if (m.name == name) {
      m.value = v;
      return;
    }
  }
  throw std::logic_error("unknown layer metric " + name);
}

void finish_traced(Traced& tr, const Tracer& tracer, double solve_s,
                   const std::string& span_path) {
  tr.solve_s = solve_s;
  const std::vector<Span>& spans = tracer.spans();
  const std::vector<std::int64_t> self = tracer.self_times();
  std::int64_t layer_self = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strncmp(spans[i].name, "bench.", 6) != 0) layer_self += self[i];
    // Children run inside their parent on one thread, so a negative self
    // time means a probe's spans overlapped.
    if (self[i] < 0) tr.error = "a span's children cover more than the span";
  }
  tr.layer_self_s = static_cast<double>(layer_self) / 1e9;
  if (!span_path.empty() && !tracer.write_json(span_path))
    tr.error = "cannot write span file " + span_path;
}

}  // namespace fdpbench
