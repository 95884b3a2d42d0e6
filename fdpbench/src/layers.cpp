#include "layers.hpp"

namespace fdpbench {

// --- OracleProbe -----------------------------------------------------------

fdp::OracleFn OracleProbe::wrap(fdp::OracleFn inner) {
  return [this, inner = std::move(inner)](const fdp::Substrate& sub,
                                          fdp::ProcessId p) {
    if (!tracer_.active()) return inner(sub, p);
    Scope s(&tracer_, "core.oracle", true);
    const std::int64_t t0 = now_ns();
    const bool v = inner(sub, p);
    ns_ += now_ns() - t0;
    ++calls_;
    return v;
  };
}

// --- TimedTransport --------------------------------------------------------

TimedTransport::TimedTransport(std::unique_ptr<fdp::net::Transport> inner,
                               Tracer& tracer)
    : inner_(std::move(inner)), tracer_(tracer) {
  timed_rx_ = [this](fdp::ProcessId dst, const std::uint8_t* data,
                     std::size_t len) {
    ++counts_.datagrams_received;
    Scope s(&tracer_, "net.rx", true);
    (*cur_rx_)(dst, data, len);
  };
}

bool TimedTransport::try_send(fdp::ProcessId src, fdp::ProcessId dst,
                              const std::uint8_t* data, std::size_t len) {
  Scope s(&tracer_, "net.transport.send", true);
  const bool ok = inner_->try_send(src, dst, data, len);
  if (ok)
    ++counts_.datagrams_sent;
  else
    ++counts_.refused;
  return ok;
}

std::size_t TimedTransport::try_send_many(fdp::ProcessId src,
                                          const fdp::net::FrameView* frames,
                                          std::size_t count) {
  Scope s(&tracer_, "net.transport.send", true);
  const std::size_t accepted = inner_->try_send_many(src, frames, count);
  counts_.datagrams_sent += accepted;
  counts_.refused += count - accepted;
  return accepted;
}

void TimedTransport::poll(int timeout_ms, const fdp::net::RxFn& rx) {
  const std::uint64_t before = counts_.datagrams_received;
  const std::int64_t t0 = now_ns();
  {
    Scope s(&tracer_, "net.transport.poll", true);
    cur_rx_ = &rx;
    inner_->poll(timeout_ms, timed_rx_);
    cur_rx_ = nullptr;
  }
  if (counts_.datagrams_received == before) counts_.idle_poll_ns += now_ns() - t0;
}

// --- TimedFactory ----------------------------------------------------------

fdp::ModelChecker::Factory timed_factory(fdp::ModelChecker::Factory inner,
                                         Tracer& tracer) {
  return [inner = std::move(inner), &tracer]() {
    Scope s(&tracer, "analysis.modelcheck.rebuild", true);
    return inner();
  };
}

}  // namespace fdpbench
