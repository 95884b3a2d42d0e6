// In-memory span recorder for the traced benchmark runs.
//
// Spans are opened and closed on one thread (the thread that drives the
// engine) and form a tree: name, start, end, parent. Two kinds exist:
//  * a plain span gets its own record every time it is opened (solve,
//    one block of 64 classic steps, one block of pumps);
//  * an aggregate span merges every call of one name under one parent into
//    a single record with a call count and the summed busy time (scheduler
//    picks, oracle calls, observer callbacks, transport calls). This keeps
//    per-step instrumentation to two clock reads and no allocation.
// A span's self time is its busy time minus the busy time of its children,
// so the self times of a finished tree sum exactly to the root's duration.
// Everything stays in memory and is written once, at the end, as JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace fdpbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int32_t parent = -1;
  std::int64_t start = 0;  ///< first open, ns
  std::int64_t end = 0;    ///< last close, ns
  std::uint64_t count = 0; ///< closes merged into this record
  std::int64_t busy = 0;   ///< summed open->close durations, ns
};

class Tracer {
 public:
  /// Open a plain span under the innermost open span.
  void open(const char* name);
  /// Open (or re-open) the aggregate span `name` under the innermost open
  /// span.
  void open_agg(const char* name);
  /// Close the innermost open span.
  void close();
  /// True while some span is open.
  [[nodiscard]] bool active() const { return !stack_.empty(); }


  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span (busy time minus its children's), by index.
  [[nodiscard]] std::vector<std::int64_t> self_times() const;

  /// Per-name totals over the whole tree.
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t busy = 0;
    std::int64_t self = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Write every span as one JSON document. Returns false on I/O failure.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  struct Frame {
    std::int32_t span;
    std::int64_t opened;
  };
  std::vector<Span> spans_;
  /// Aggregate children of each span, by name pointer (few per parent).
  std::vector<std::vector<std::pair<const char*, std::int32_t>>> aggs_;
  std::vector<Frame> stack_;
};

/// RAII scope over Tracer::open/close. A null tracer makes it a no-op, and
/// so does an aggregate scope outside every open span: probes record only
/// inside a measured region (a root span), never during set-up or teardown.
class Scope {
 public:
  Scope(Tracer* t, const char* name, bool aggregate) : t_(t) {
    if (t_ == nullptr) return;
    if (!aggregate) {
      t_->open(name);
    } else if (t_->active()) {
      t_->open_agg(name);
    } else {
      t_ = nullptr;
    }
  }
  ~Scope() {
    if (t_ != nullptr) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

}  // namespace fdpbench
