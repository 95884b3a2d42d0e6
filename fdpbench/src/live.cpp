// live_udp: the E13 framework scenario on the skip-list overlay, every
// process an actor behind its own loopback UDP socket (sendmmsg batching,
// frame coalescing), a SafetyMonitor, and an open-loop lookup generator
// issuing requests at a fixed wall-clock rate until every leaver has exited.
//
// The monitor checks every 16n actions, not every n/16 as E13 does: at
// n/16 its connectivity BFS took 94% of the run (measured with this
// benchmark's trace), which would leave the net/ layer this workload exists
// to measure at a few percent of its time.
#include <algorithm>
#include <cmath>
#include <memory>

#include "analysis/monitors.hpp"
#include "analysis/scenario.hpp"
#include "core/oracle.hpp"
#include "layers.hpp"
#include "lookup_gen.hpp"
#include "net/live_scenario.hpp"
#include "net/transport.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace fdpbench {

namespace {

/// Wall-clock ceiling on one departure campaign; hitting it fails the run.
constexpr double kMaxSolveS = 30.0;
/// After the last leaver exits, outstanding lookups get this long (with
/// re-sends) to come home; whatever is still open then has failed.
constexpr double kGraceS = 5.0;

/// SafetyMonitor stride in actions: 16 n (see the header comment).
std::uint64_t monitor_stride(const Sizes& z) { return 16 * z.live_n; }

fdp::ScenarioConfig live_config(std::size_t n, std::uint64_t seed) {
  fdp::ScenarioConfig cfg;
  cfg.n = n;
  cfg.topology = "gnp";
  cfg.leave_fraction = 0.25;
  cfg.invalid_mode_prob = 0.2;
  cfg.random_anchor_prob = 0.1;
  cfg.seed = seed;
  return cfg;
}

fdp::net::LiveScenario build(const Sizes& z, std::uint64_t seed,
                             std::unique_ptr<fdp::net::Transport> transport) {
  return fdp::net::build_live_framework_scenario(
      live_config(z.live_n, seed), "skiplist", std::move(transport),
      fdp::net::NetConfig{});
}

std::unique_ptr<fdp::net::Transport> udp() {
  return std::make_unique<fdp::net::UdpTransport>(/*batching=*/true);
}

LookupGenConfig gen_config(const Sizes& z, std::uint64_t seed) {
  return LookupGenConfig{z.lookup_rate_per_s, seed ^ 0x100c0b5ULL};
}

std::vector<std::uint64_t> keys_of(const fdp::net::LiveScenario& sc) {
  std::vector<std::uint64_t> keys;
  for (fdp::ProcessId p = 0; p < sc.net->size(); ++p)
    keys.push_back(sc.net->process(p).key());
  return keys;
}

/// Population i of the campaign: E13's seeds 1, 2, ... The run seed drives
/// the client side (access nodes, target keys) instead: departure time
/// varies between populations with a heavy tail (coefficient of variation
/// about 0.9 at n = 256), which would swamp any runtime change if every
/// run seed drew its own populations.
std::uint64_t population_seed(std::size_t i) { return i + 1; }

/// Block in poll only when the next request is more than 1 ms away, so
/// the generator keeps its schedule.
int poll_timeout_ms(const OpenLoopLookups& gen) {
  return gen.ns_to_next_due() > 1'000'000 ? 1 : 0;
}

}  // namespace

double live_udp_setup(const Sizes& z, std::uint64_t seed) {
  (void)seed;  // populations are fixed; the seed drives the lookups
  double total = 0.0;
  for (std::size_t i = 0; i < z.live_scenarios; ++i) {
    const std::int64_t t0 = now_ns();
    fdp::net::LiveScenario sc = build(z, population_seed(i), udp());
    total += secs(t0, now_ns());
  }
  return total;
}

namespace {

Trial untraced_scenario(const Sizes& z, std::uint64_t pop_seed,
                        std::uint64_t lookup_seed) {
  Trial t;
  fdp::net::LiveScenario sc = build(z, pop_seed, udp());
  fdp::net::NetRuntime& net = *sc.net;
  fdp::SafetyMonitor safety(net, monitor_stride(z));
  net.add_observer(&safety);
  OpenLoopLookups gen(sc.refs, keys_of(sc), sc.leaving, gen_config(z, lookup_seed));
  net.add_observer(&gen);

  const std::int64_t start = now_ns();
  gen.start(start);
  bool gone = false;
  while (!(gone = fdp::all_leaving_gone(net))) {
    if (secs(start, now_ns()) > kMaxSolveS) break;
    gen.pump(net);
    net.pump(poll_timeout_ms(gen));
  }
  const std::int64_t end = now_ns();
  t.solve_s = secs(start, end);
  t.actions = net.clock();
  t.frames = net.deliveries();
  gen.stop_issuing();
  while (gen.outstanding() > 0 && secs(end, now_ns()) < kGraceS) {
    gen.pump(net);
    net.pump(1);
  }

  const LookupStats& ls = gen.stats();
  t.lookup_ms = ls.latency_ms;
  t.lag_ms = ls.lag_ms;
  t.lookups_unresolved = gen.outstanding();
  t.lookup_resends = ls.resends;

  const std::uint64_t not_exited =
      sc.leaving_count - std::min<std::uint64_t>(net.exits(), sc.leaving_count);
  t.attempted = sc.leaving_count + ls.issued;
  t.failed = not_exited + t.lookups_unresolved + safety.violations().size() +
             net.wire_errors() + net.retransmit_gave_up() + ls.bad_hits;
  if (!gone)
    t.error = "leavers still present after " + std::to_string(kMaxSolveS) + " s";
  else if (!safety.ok())
    t.error = "safety violated";
  else if (net.wire_errors() > 0)
    t.error = "wire errors";
  else if (net.retransmit_gave_up() > 0)
    t.error = "retransmit gave up";
  else if (ls.bad_hits > 0)
    t.error = "Hit verdict for an absent key";
  else if (t.lookups_unresolved > 0)
    t.error = std::to_string(t.lookups_unresolved) + " lookups unresolved";
  return t;
}

/// Counters a traced campaign sums over its scenarios.
struct NetTally {
  std::uint64_t pumps = 0;
  std::uint64_t idle_pumps = 0;
  std::uint64_t actions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t sends = 0;
  std::uint64_t syscalls = 0;
  TransportCounts tc;
  std::uint64_t retransmits = 0;
  std::uint64_t stale_frames = 0;
  std::uint64_t throttle_skips = 0;
  double solve_s = 0.0;
};

/// One traced scenario; returns the first failed check, or "".
std::string traced_scenario(const Sizes& z, std::uint64_t pop_seed,
                            std::uint64_t lookup_seed, Tracer& tracer,
                            OracleProbe& probe, NetTally& tally) {
  auto owned = std::make_unique<TimedTransport>(udp(), tracer);
  TimedTransport& tt = *owned;
  fdp::net::LiveScenario sc = build(z, pop_seed, std::move(owned));
  fdp::net::NetRuntime& net = *sc.net;
  net.set_oracle(
      probe.wrap(fdp::oracle_by_name(live_config(z.live_n, pop_seed).oracle)));
  fdp::SafetyMonitor safety(net, monitor_stride(z));
  TimedObserver t_safety(safety, "analysis.monitor.safety", tracer);
  net.add_observer(&t_safety);
  OpenLoopLookups gen(sc.refs, keys_of(sc), sc.leaving, gen_config(z, lookup_seed));
  TimedObserver t_gen(gen, "analysis.lookup.observe", tracer);
  net.add_observer(&t_gen);

  // Counters before the run: construction already sent corruption frames.
  const TransportCounts c0 = tt.counts();
  const fdp::net::TransportStats s0 = net.transport().stats();
  const std::uint64_t sends0 = net.sends();
  const std::uint64_t deliveries0 = net.deliveries();

  bool gone = false;
  const std::int64_t start = now_ns();
  gen.start(start);
  tracer.open("bench.solve");
  while (!gone) {
    Scope block(&tracer, "bench.pump_block", false);
    for (int i = 0; i < 64; ++i) {
      {
        Scope s(&tracer, "core.legitimacy", true);
        gone = fdp::all_leaving_gone(net);
      }
      if (gone || secs(start, now_ns()) > kMaxSolveS) break;
      {
        Scope s(&tracer, "analysis.lookup.issue", true);
        gen.pump(net);
      }
      std::size_t executed = 0;
      {
        Scope s(&tracer, "net.pump", true);
        executed = net.pump(poll_timeout_ms(gen));
      }
      ++tally.pumps;
      if (executed == 0) ++tally.idle_pumps;
    }
    if (!gone && secs(start, now_ns()) > kMaxSolveS) break;
  }
  tracer.close();
  const std::int64_t end = now_ns();
  tally.solve_s += secs(start, end);
  tally.actions += net.clock();
  tally.deliveries += net.deliveries() - deliveries0;
  tally.sends += net.sends() - sends0;
  const fdp::net::TransportStats s1 = net.transport().stats();
  tally.syscalls +=
      s1.send_calls - s0.send_calls + s1.recv_calls - s0.recv_calls;
  const TransportCounts& c = tt.counts();
  tally.tc.datagrams_sent += c.datagrams_sent - c0.datagrams_sent;
  tally.tc.datagrams_received += c.datagrams_received - c0.datagrams_received;
  tally.tc.refused += c.refused - c0.refused;
  tally.tc.idle_poll_ns += c.idle_poll_ns - c0.idle_poll_ns;
  tally.retransmits += net.retransmits();
  tally.stale_frames += net.stale_frames();
  tally.throttle_skips += net.throttle_skips();
  if (!gone) return "traced run: leavers still present";
  if (!safety.ok()) return "traced run: safety violated";

  // Let this scenario's lookups finish before its sockets close (untimed).
  gen.stop_issuing();
  while (gen.outstanding() > 0 && secs(end, now_ns()) < kGraceS) {
    gen.pump(net);
    net.pump(1);
  }
  return "";
}

}  // namespace

Trial live_udp_untraced(const Sizes& z, std::uint64_t seed) {
  Trial sum;
  for (std::size_t i = 0; i < z.live_scenarios; ++i)
    accumulate(sum, untraced_scenario(z, population_seed(i),
                                      campaign_seed(seed, i)));
  return sum;
}

Traced live_udp_traced(const Sizes& z, std::uint64_t seed,
                       const Trial& untraced, const std::string& span_path) {
  Traced tr;
  std::vector<Metric> m = layer_metric_template();
  Tracer tracer;
  OracleProbe probe(tracer);
  NetTally tally;
  for (std::size_t i = 0; i < z.live_scenarios; ++i) {
    const std::string err =
        traced_scenario(z, population_seed(i), campaign_seed(seed, i), tracer,
                        probe, tally);
    if (!err.empty() && tr.error.empty()) tr.error = err;
  }
  const std::string keep_error = tr.error;
  finish_traced(tr, tracer, tally.solve_s, span_path);
  if (tr.error.empty()) tr.error = keep_error;
  tr.actions = tally.actions;

  const auto tot = tracer.totals();
  const auto get = [&tot](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end() ? Tracer::Totals{} : it->second;
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double dg_sent = static_cast<double>(tally.tc.datagrams_sent);
  const double dg_recv = static_cast<double>(tally.tc.datagrams_received);
  const double idle_poll_ns = static_cast<double>(tally.tc.idle_poll_ns);
  set_metric(m, "net.pump.idle_ratio",
             ratio(static_cast<double>(tally.idle_pumps),
                   static_cast<double>(tally.pumps)));
  set_metric(m, "net.pump.self_ns_per_action",
             ratio(static_cast<double>(get("net.pump").self),
                   static_cast<double>(tally.actions)));
  set_metric(m, "net.transport.send.ns_per_datagram",
             ratio(static_cast<double>(get("net.transport.send").busy), dg_sent));
  set_metric(m, "net.transport.send.refused",
             static_cast<double>(tally.tc.refused));
  set_metric(m, "net.transport.poll.wait_s", idle_poll_ns / 1e9);
  set_metric(m, "net.transport.poll.self_ns_per_datagram",
             ratio(static_cast<double>(get("net.transport.poll").self) -
                       idle_poll_ns,
                   dg_recv));
  set_metric(m, "net.rx.ns_per_datagram",
             ratio(static_cast<double>(get("net.rx").busy), dg_recv));
  set_metric(m, "net.transport.syscalls_per_frame",
             ratio(static_cast<double>(tally.syscalls),
                   static_cast<double>(tally.deliveries)));
  set_metric(m, "net.transport.frames_per_datagram",
             ratio(static_cast<double>(tally.sends), dg_sent));
  set_metric(m, "net.retransmits", static_cast<double>(tally.retransmits));
  set_metric(m, "net.stale_frames", static_cast<double>(tally.stale_frames));
  set_metric(m, "net.throttle_skips", static_cast<double>(tally.throttle_skips));
  const double calls = static_cast<double>(probe.calls());
  set_metric(m, "core.oracle.calls", calls);
  set_metric(m, "core.oracle.ns_per_call",
             ratio(static_cast<double>(probe.ns()), calls));
  const Tracer::Totals mon = get("analysis.monitor.safety");
  set_metric(m, "analysis.monitor.safety.busy_share",
             ratio(static_cast<double>(mon.busy), tr.solve_s * 1e9));
  set_metric(m, "analysis.monitor.safety.calls", static_cast<double>(mon.count));

  // User-facing numbers of the untraced reference trial.
  set_metric(m, "net.frames_per_s",
             ratio(static_cast<double>(untraced.frames), untraced.solve_s));
  // An unresolved lookup counts as +inf latency, as in untraced runs.
  std::vector<double> lookups = untraced.lookup_ms;
  lookups.insert(lookups.end(), untraced.lookups_unresolved, INFINITY);
  set_metric(m, "analysis.lookup.p50_ms", quantile(lookups, 0.50));
  set_metric(m, "analysis.lookup.p99_ms", quantile(lookups, 0.99));
  set_metric(m, "analysis.lookup.lag_p99_ms", quantile(untraced.lag_ms, 0.99));
  set_metric(m, "analysis.lookup.resends",
             static_cast<double>(untraced.lookup_resends));
  tr.layer = std::move(m);
  return tr;
}

}  // namespace fdpbench
