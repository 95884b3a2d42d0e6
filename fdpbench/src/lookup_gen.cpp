#include "lookup_gen.hpp"

#include <stdexcept>

#include "overlay/overlay_protocol.hpp"
#include "trace.hpp"

namespace fdpbench {

namespace {
/// Share of requests for an absent key.
constexpr double kAbsentProb = 0.2;
/// A request without a verdict this long after its last send is re-sent.
constexpr std::int64_t kRetryNs = 400'000'000;
}  // namespace

OpenLoopLookups::OpenLoopLookups(std::vector<fdp::Ref> refs,
                                 std::vector<std::uint64_t> keys,
                                 const std::vector<bool>& leaving,
                                 LookupGenConfig cfg)
    : cfg_(cfg), refs_(std::move(refs)), keys_(std::move(keys)),
      rng_(cfg.seed) {
  for (fdp::ProcessId p = 0; p < refs_.size(); ++p)
    if (!leaving[p]) stayers_.push_back(p);
  if (stayers_.empty() || cfg_.rate_per_s <= 0.0)
    throw std::invalid_argument("lookup generator needs stayers and a rate");
}

std::int64_t OpenLoopLookups::due_ns(std::uint64_t i) const {
  return t0_ns_ +
         static_cast<std::int64_t>(static_cast<double>(i) * 1e9 / cfg_.rate_per_s);
}

std::int64_t OpenLoopLookups::ns_to_next_due() const {
  if (!issuing_) return INT64_MAX;
  return due_ns(stats_.issued) - now_ns();
}

void OpenLoopLookups::send(fdp::Substrate& sub, const Open& o) {
  fdp::Message m;
  m.set_verb(fdp::Verb::Overlay);
  m.set_tag(fdp::kTagLookup);
  m.token = o.key;
  // refs[0] = the requester; access nodes are staying, so this
  // self-description is valid by construction.
  m.refs.push_back(
      fdp::RefInfo{refs_[o.access], fdp::ModeInfo::Staying, keys_[o.access]});
  sub.inject(refs_[o.access], std::move(m));
}

void OpenLoopLookups::pump(fdp::Substrate& sub) {
  const std::int64_t now = now_ns();
  while (issuing_) {
    const std::int64_t due = due_ns(stats_.issued);
    if (due > now) break;
    Open o{};
    std::uint64_t pk = 0;
    for (int draw = 0;; ++draw) {
      o.access = stayers_[rng_.below(stayers_.size())];
      // Present keys can run out of fresh pairs on a long run; an absent
      // key is a fresh pair with overwhelming probability.
      o.absent = draw >= 64 || rng_.chance(kAbsentProb);
      if (o.absent) {
        do {
          o.key = rng_();
        } while (o.key == 0);
      } else {
        o.key = keys_[stayers_[rng_.below(stayers_.size())]];
      }
      pk = pair_key(o.access, o.key);
      if (open_.count(pk) == 0 && resent_.count(pk) == 0) break;
    }
    o.due_ns = due;
    o.last_send_ns = now;
    send(sub, o);
    open_.emplace(pk, o);
    ++stats_.issued;
    stats_.lag_ms.push_back(static_cast<double>(now - due) / 1e6);
  }
  for (auto& [pk, o] : open_) {
    if (now - o.last_send_ns < kRetryNs) continue;
    o.last_send_ns = now;
    send(sub, o);
    resent_.insert(pk);
    ++stats_.resends;
  }
}

void OpenLoopLookups::on_action(const fdp::Substrate& sub,
                                const fdp::ActionRecord& rec) {
  (void)sub;
  if (rec.kind != fdp::ActionRecord::Kind::Deliver || !rec.consumed) return;
  const fdp::Message& m = *rec.consumed;
  if (m.verb() != fdp::Verb::Overlay ||
      (m.tag() != fdp::kTagLookupHit && m.tag() != fdp::kTagLookupMiss))
    return;
  const auto it = open_.find(pair_key(rec.actor, m.token));
  if (it == open_.end() || it->second.access != rec.actor ||
      it->second.key != m.token)
    return;  // a late verdict of a re-sent request, or not ours
  const Open o = it->second;
  open_.erase(it);
  ++stats_.resolved;
  if (m.tag() == fdp::kTagLookupHit) {
    ++stats_.hits;
    if (o.absent) ++stats_.bad_hits;
  } else {
    ++stats_.misses;
  }
  stats_.latency_ms.push_back(static_cast<double>(now_ns() - o.due_ns) / 1e6);
}

}  // namespace fdpbench
