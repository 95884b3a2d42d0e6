// Open-loop lookup generator.
//
// Independent clients issue key lookups at a fixed wall-clock rate,
// whatever the overlay's state: request i is due at t0 + i / rate. A fifth
// of the requests ask for a random (absent) key, the rest for the key of a
// random staying process. Each request is the public kTagLookup message
// shape (Verb::Overlay, token = target key, refs[0] = the access node's own
// RefInfo) admitted through Substrate::inject at a random staying access
// node; its verdict is the delivery of a kTagLookupHit/Miss message at that
// node with the token echoed, seen through the Observer interface.
//
// Latency is timed from the request's DUE time, not from when the
// generator got round to sending it, so a stalled event loop charges its
// stall to every request that came due meanwhile. The generator's own
// lateness (send time minus due time) is reported separately: it bounds
// how far the latency figures can be trusted.
//
// A client whose request got no verdict within 400 ms of its last send
// re-sends it (a request routed into a node whose exit raced the
// frame dies with it); the latency still runs from the first due time.
// A request is identified by its (access node, key) pair: no two open
// requests share one, and a pair that was ever re-sent is never reused, so
// a late verdict of an earlier send can never complete a different request.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/observer.hpp"
#include "sim/substrate.hpp"
#include "util/rng.hpp"

namespace fdpbench {

struct LookupGenConfig {
  double rate_per_s;
  std::uint64_t seed;
};

struct LookupStats {
  std::uint64_t issued = 0;     ///< distinct requests
  std::uint64_t resends = 0;    ///< retries after 400 ms
  std::uint64_t resolved = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t bad_hits = 0;   ///< Hit verdict for an absent key (a bug)
  std::vector<double> latency_ms;  ///< resolved requests, from due time
  std::vector<double> lag_ms;      ///< first send minus due time
};

class OpenLoopLookups final : public fdp::Observer {
 public:
  /// Population by process id (refs, keys, leaving flags).
  OpenLoopLookups(std::vector<fdp::Ref> refs, std::vector<std::uint64_t> keys,
                  const std::vector<bool>& leaving, LookupGenConfig cfg);

  /// Anchor the schedule: request 0 is due at `t0_ns` (steady clock).
  void start(std::int64_t t0_ns) { t0_ns_ = t0_ns; }
  /// Issue no new requests from now on (retries continue).
  void stop_issuing() { issuing_ = false; }

  /// Send every request due by now and re-send every overdue one.
  void pump(fdp::Substrate& sub);
  /// Nanoseconds until the next request is due (<= 0: due now).
  [[nodiscard]] std::int64_t ns_to_next_due() const;

  void on_action(const fdp::Substrate& sub,
                 const fdp::ActionRecord& rec) override;

  [[nodiscard]] std::uint64_t outstanding() const { return open_.size(); }
  [[nodiscard]] const LookupStats& stats() const { return stats_; }

 private:
  struct Open {
    fdp::ProcessId access;
    std::uint64_t key;
    bool absent;
    std::int64_t due_ns;
    std::int64_t last_send_ns;
  };
  static std::uint64_t pair_key(fdp::ProcessId access, std::uint64_t key) {
    return key * 0x9e3779b97f4a7c15ULL ^ access;
  }
  /// Due time of request i: t0 + i / rate.
  [[nodiscard]] std::int64_t due_ns(std::uint64_t i) const;
  void send(fdp::Substrate& sub, const Open& o);

  LookupGenConfig cfg_;
  std::vector<fdp::Ref> refs_;
  std::vector<std::uint64_t> keys_;
  std::vector<fdp::ProcessId> stayers_;
  fdp::Rng rng_;
  std::int64_t t0_ns_ = 0;
  bool issuing_ = true;
  std::unordered_map<std::uint64_t, Open> open_;  ///< by pair_key
  std::unordered_set<std::uint64_t> resent_;      ///< pair_keys ever re-sent
  LookupStats stats_;
};

}  // namespace fdpbench
