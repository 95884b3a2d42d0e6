// Layer probes: decorators around the library's public interfaces that
// time every call into a layer from outside it.
//
//   sim/                TimedScheduler   (Scheduler)
//   core/               OracleProbe      (OracleFn)
//   analysis/monitors   TimedObserver    (Observer)
//   net/                TimedTransport   (Transport; also wraps poll's rx
//                                         callback)
//   analysis/modelcheck TimedFactory     (ModelChecker::Factory)
//
// Each probe records an aggregate span in the Tracer (trace.hpp) when it is
// called inside a measured region, so the caller's self time excludes it.
#pragma once

#include <cstdint>
#include <memory>

#include "analysis/modelcheck.hpp"
#include "net/transport.hpp"
#include "sim/observer.hpp"
#include "sim/scheduler.hpp"
#include "sim/substrate.hpp"
#include "trace.hpp"

namespace fdpbench {

class TimedScheduler final : public fdp::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<fdp::Scheduler> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}
  fdp::ActionChoice next(const fdp::KernelView& view, fdp::Rng& rng) override {
    Scope s(&tracer_, "sim.scheduler", true);
    return inner_->next(view, rng);
  }

 private:
  std::unique_ptr<fdp::Scheduler> inner_;
  Tracer& tracer_;
};

/// Times every callback of `inner` as the aggregate span `name`.
class TimedObserver final : public fdp::Observer {
 public:
  TimedObserver(fdp::Observer& inner, const char* name, Tracer& tracer)
      : inner_(inner), name_(name), tracer_(tracer) {}
  void on_action(const fdp::Substrate& sub,
                 const fdp::ActionRecord& rec) override {
    Scope s(&tracer_, name_, true);
    inner_.on_action(sub, rec);
  }
  void on_inject(const fdp::Substrate& sub, fdp::ProcessId to,
                 const fdp::Message& m) override {
    Scope s(&tracer_, name_, true);
    inner_.on_inject(sub, to, m);
  }
  void on_remove(const fdp::Substrate& sub, fdp::ProcessId from,
                 const fdp::Message& m) override {
    Scope s(&tracer_, name_, true);
    inner_.on_remove(sub, from, m);
  }
  void on_fault(const fdp::Substrate& sub, fdp::FaultKind kind,
                fdp::ProcessId target, bool applied) override {
    Scope s(&tracer_, name_, true);
    inner_.on_fault(sub, kind, target, applied);
  }

 private:
  fdp::Observer& inner_;
  const char* name_;
  Tracer& tracer_;
};

/// Counts and times oracle consultations inside the tracer's measured
/// region, as "core.oracle" spans.
class OracleProbe {
 public:
  explicit OracleProbe(Tracer& tracer) : tracer_(tracer) {}
  // wrap() captures `this`.
  OracleProbe(const OracleProbe&) = delete;
  OracleProbe& operator=(const OracleProbe&) = delete;

  /// Wrap `inner`; the probe must outlive every copy of the result.
  [[nodiscard]] fdp::OracleFn wrap(fdp::OracleFn inner);

  [[nodiscard]] std::uint64_t calls() const { return calls_; }
  [[nodiscard]] std::int64_t ns() const { return ns_; }

 private:
  Tracer& tracer_;
  std::uint64_t calls_ = 0;
  std::int64_t ns_ = 0;
};

struct TransportCounts {
  std::uint64_t datagrams_sent = 0;      ///< accepted by the medium
  std::uint64_t refused = 0;             ///< offered but not accepted
  std::uint64_t datagrams_received = 0;  ///< rx callback invocations
  std::int64_t idle_poll_ns = 0;         ///< time in polls that received nothing
};

/// Transport decorator: "net.transport.send" around try_send(_many),
/// "net.transport.poll" around poll, "net.rx" around each rx callback.
class TimedTransport final : public fdp::net::Transport {
 public:
  TimedTransport(std::unique_ptr<fdp::net::Transport> inner, Tracer& tracer);
  // timed_rx_ captures `this`.
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  void open(std::size_t n) override { inner_->open(n); }
  bool try_send(fdp::ProcessId src, fdp::ProcessId dst,
                const std::uint8_t* data, std::size_t len) override;
  std::size_t try_send_many(fdp::ProcessId src,
                            const fdp::net::FrameView* frames,
                            std::size_t count) override;
  void poll(int timeout_ms, const fdp::net::RxFn& rx) override;
  [[nodiscard]] std::size_t in_medium() const override {
    return inner_->in_medium();
  }
  [[nodiscard]] bool lossy() const override { return inner_->lossy(); }
  [[nodiscard]] fdp::net::TransportStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

  [[nodiscard]] const TransportCounts& counts() const { return counts_; }

 private:
  std::unique_ptr<fdp::net::Transport> inner_;
  Tracer& tracer_;
  TransportCounts counts_;
  const fdp::net::RxFn* cur_rx_ = nullptr;
  fdp::net::RxFn timed_rx_;  ///< built once; forwards to *cur_rx_
};

/// Times every world rebuild of a model-checker factory.
[[nodiscard]] fdp::ModelChecker::Factory timed_factory(
    fdp::ModelChecker::Factory inner, Tracer& tracer);

}  // namespace fdpbench
