// modelcheck: E11's "adjacent leavers + lies" configuration explored
// exhaustively by ModelChecker::run up to an in-flight message bound.
//
// The seed relabels the configuration: it draws which process id each of
// the three roles gets and the processes' keys. The explored state graph
// is the same up to that relabelling, so every seed costs the same work.
#include <algorithm>
#include <array>
#include <memory>
#include <tuple>

#include "analysis/modelcheck.hpp"
#include "core/departure_process.hpp"
#include "core/oracle.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace fdpbench {

namespace {

using fdp::Mode;
using fdp::ModeInfo;
using fdp::ProcessId;

struct Input {
  std::array<Mode, 3> modes{};                 ///< by process id
  std::array<std::uint64_t, 3> keys{};         ///< by process id
  std::vector<std::tuple<ProcessId, ProcessId, bool>> edges;  ///< from, to, lie
};

// Roles: L0 and L1 are adjacent leavers that hold lies about each other,
// S is a stayer both know or are known by.
Input make_input(std::uint64_t seed) {
  const std::array<Mode, 3> role_mode = {Mode::Leaving, Mode::Leaving,
                                         Mode::Staying};
  const std::vector<std::tuple<int, int, bool>> role_edges = {
      {0, 1, true}, {1, 0, true}, {1, 2, false}, {2, 1, false}, {0, 2, false}};
  fdp::Rng rng(seed);
  std::array<ProcessId, 3> id_of = {0, 1, 2};
  for (std::size_t i = 3; i > 1; --i)
    std::swap(id_of[i - 1], id_of[rng.below(i)]);
  Input in;
  for (int r = 0; r < 3; ++r) {
    in.modes[id_of[r]] = role_mode[r];
    in.keys[id_of[r]] = 1 + rng.below(1'000'000'000);
  }
  for (const auto& [from, to, lie] : role_edges)
    in.edges.emplace_back(id_of[from], id_of[to], lie);
  return in;
}

/// The world the checker restarts from. `oracle` is installed on it.
std::unique_ptr<fdp::World> build_world(const Input& in, fdp::OracleFn oracle) {
  auto w = std::make_unique<fdp::World>(1);
  std::vector<fdp::Ref> refs;
  for (std::size_t i = 0; i < in.modes.size(); ++i)
    refs.push_back(w->spawn<fdp::DepartureProcess>(in.modes[i], in.keys[i]));
  for (const auto& [from, to, lie] : in.edges) {
    const Mode actual = in.modes[to];
    const ModeInfo info =
        lie ? (actual == Mode::Leaving ? ModeInfo::Staying : ModeInfo::Leaving)
            : fdp::to_info(actual);
    w->process_as<fdp::DepartureProcess>(from).nbrs_mut().insert(
        fdp::RefInfo{refs[to], info, in.keys[to]});
  }
  w->set_oracle(std::move(oracle));
  return w;
}

fdp::ModelCheckConfig mc_config() {
  fdp::ModelCheckConfig cfg;
  cfg.max_inflight = kMcInflight;
  cfg.max_states = 10'000'000;
  return cfg;
}

}  // namespace

// Set-up is what the checker does before its search: draw the input and
// build the initial world.
double modelcheck_setup(const Sizes& z, std::uint64_t seed) {
  (void)z;
  const std::int64_t t0 = now_ns();
  const Input in = make_input(seed);
  const std::unique_ptr<fdp::World> w = build_world(in, fdp::make_single_oracle());
  return secs(t0, now_ns());
}

Trial modelcheck_untraced(const Sizes& z, std::uint64_t seed) {
  (void)z;  // one size: kMcInflight
  Trial t;
  const Input in = make_input(seed);
  {
    const auto w = build_world(in, fdp::make_single_oracle());
    t.bytes_per_process =
        static_cast<double>(w->footprint(/*capacity=*/true).total()) /
        static_cast<double>(w->size());
  }
  fdp::ModelChecker mc(
      [&in] { return build_world(in, fdp::make_single_oracle()); },
      mc_config());
  const std::int64_t t1 = now_ns();
  const fdp::ModelCheckResult r = mc.run();
  t.solve_s = secs(t1, now_ns());
  t.actions = r.transitions;
  t.states = r.states;
  t.attempted = r.states;
  t.failed = r.safety_violations + r.phi_increases + r.stuck_states;
  if (!r.clean()) t.error = "model check violation: " + r.first_violation;
  return t;
}

Traced modelcheck_traced(const Sizes& z, std::uint64_t seed,
                         const Trial& untraced, const std::string& span_path) {
  (void)z;  // one size: kMcInflight
  Traced tr;
  std::vector<Metric> m = layer_metric_template();
  const Input in = make_input(seed);
  Tracer tracer;
  OracleProbe probe(tracer);
  fdp::ModelChecker mc(
      timed_factory(
          [&in, &probe] {
            return build_world(in, probe.wrap(fdp::make_single_oracle()));
          },
          tracer),
      mc_config());
  const std::int64_t t0 = now_ns();
  tracer.open("bench.solve");
  tracer.open("analysis.modelcheck.run");
  const fdp::ModelCheckResult r = mc.run();
  tracer.close();
  tracer.close();
  const std::int64_t t1 = now_ns();
  finish_traced(tr, tracer, secs(t0, t1), span_path);
  tr.actions = r.transitions;
  tr.states = r.states;
  if (!r.clean() && tr.error.empty()) tr.error = "traced model check not clean";

  const auto tot = tracer.totals();
  const auto get = [&tot](const char* name) {
    const auto it = tot.find(name);
    return it == tot.end() ? Tracer::Totals{} : it->second;
  };
  const Tracer::Totals rebuild = get("analysis.modelcheck.rebuild");
  const Tracer::Totals run = get("analysis.modelcheck.run");
  set_metric(m, "analysis.modelcheck.rebuild.calls",
             static_cast<double>(rebuild.count));
  set_metric(m, "analysis.modelcheck.rebuild.ns_per_call",
             rebuild.count > 0 ? static_cast<double>(rebuild.busy) /
                                     static_cast<double>(rebuild.count)
                               : 0.0);
  set_metric(m, "analysis.modelcheck.self_ns_per_transition",
             r.transitions > 0 ? static_cast<double>(run.self) /
                                     static_cast<double>(r.transitions)
                               : 0.0);
  set_metric(m, "sim.world.bytes_per_process", untraced.bytes_per_process);
  const double calls = static_cast<double>(probe.calls());
  set_metric(m, "core.oracle.calls", calls);
  set_metric(m, "core.oracle.ns_per_call",
             calls > 0 ? static_cast<double>(probe.ns()) / calls : 0.0);
  tr.layer = std::move(m);
  return tr;
}

}  // namespace fdpbench
