#include "trace.hpp"

#include <cstdio>

namespace fdpbench {

void Tracer::open(const char* name) {
  const std::int64_t t = now_ns();
  const std::int32_t idx = static_cast<std::int32_t>(spans_.size());
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back().span;
  s.start = t;
  spans_.push_back(s);
  aggs_.emplace_back();
  stack_.push_back(Frame{idx, t});
}

void Tracer::open_agg(const char* name) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back().span;
  std::int32_t idx = -1;
  if (parent >= 0) {
    for (const auto& [n, i] : aggs_[static_cast<std::size_t>(parent)])
      if (n == name) idx = i;
  }
  const std::int64_t t = now_ns();
  if (idx < 0) {
    idx = static_cast<std::int32_t>(spans_.size());
    Span s;
    s.name = name;
    s.parent = parent;
    s.start = t;
    spans_.push_back(s);
    aggs_.emplace_back();
    if (parent >= 0)
      aggs_[static_cast<std::size_t>(parent)].emplace_back(name, idx);
  }
  stack_.push_back(Frame{idx, t});
}

void Tracer::close() {
  const std::int64_t t = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(f.span)];
  s.end = t;
  s.busy += t - f.opened;
  ++s.count;
}

std::vector<std::int64_t> Tracer::self_times() const {
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].busy;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.busy;
  return self;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<std::int64_t> self = self_times();
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Totals& t = out[spans_[i].name];
    t.count += spans_[i].count;
    t.busy += spans_[i].busy;
    t.self += self[i];
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "{\"unit\": \"ns\", \"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start\": %lld, \"end\": %lld, \"count\": %llu, "
                 "\"busy\": %lld}%s\n",
                 i, s.name, s.parent, static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0),
                 static_cast<unsigned long long>(s.count),
                 static_cast<long long>(s.busy),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace fdpbench
