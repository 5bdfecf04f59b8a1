// Span tracer: the path registry, each thread's innermost live span, and
// the adopted parent through which pool workers nest their spans under the
// region that dispatched them (see trace.h).

#include "obs/trace.h"

#include <algorithm>

namespace ips::obs {

namespace {

// Innermost live span of this thread; the parent of the next Span opened
// here. Threads start from nullptr, so their spans root themselves unless
// they adopt a parent (AdoptedParentSpan).
thread_local Span* t_current_span = nullptr;

}  // namespace

std::string TraceSpan::Leaf() const {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

size_t TraceSpan::Depth() const {
  return static_cast<size_t>(std::count(path.begin(), path.end(), '/'));
}

const TraceSpan* TraceReport::Find(const std::string& path) const {
  for (const TraceSpan& span : spans) {
    if (span.path == path) return &span;
  }
  return nullptr;
}

double TraceReport::LeafSeconds(const std::string& leaf) const {
  double total = 0.0;
  for (const TraceSpan& span : spans) {
    if (span.Leaf() == leaf) total += span.seconds;
  }
  return total;
}

uint64_t TraceReport::LeafCount(const std::string& leaf) const {
  uint64_t total = 0;
  for (const TraceSpan& span : spans) {
    if (span.Leaf() == leaf) total += span.count;
  }
  return total;
}

TraceRegistry& TraceRegistry::Instance() {
  // Leaky: spans on pool worker threads may complete during teardown.
  static TraceRegistry* registry = new TraceRegistry();
  return *registry;
}

void TraceRegistry::Record(const std::string& path, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats& stats = totals_[path];
  stats.count += 1;
  stats.seconds += seconds;
}

TraceSnapshot TraceRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

TraceReport TraceRegistry::Delta(const TraceSnapshot& before,
                                 const TraceSnapshot& after) {
  TraceReport report;
  for (const auto& [path, stats] : after) {
    SpanStats delta = stats;
    if (const auto it = before.find(path); it != before.end()) {
      delta.count -= it->second.count;
      delta.seconds -= it->second.seconds;
    }
    if (delta.count == 0) continue;
    report.spans.push_back({path, delta.count, delta.seconds});
  }
  // `after` is an ordered map, so the report is already path-sorted.
  return report;
}

TraceReport TraceRegistry::DeltaSince(const TraceSnapshot& before) const {
  return Delta(before, Snapshot());
}

Span::Span(const char* name) : parent_(t_current_span) {
  if (parent_ != nullptr) {
    path_.reserve(parent_->path_.size() + 1 + std::char_traits<char>::length(name));
    path_ = parent_->path_;
    path_.push_back('/');
    path_ += name;
  } else {
    path_ = name;
  }
  t_current_span = this;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  t_current_span = parent_;
  TraceRegistry::Instance().Record(path_, seconds);
}

AdoptedParentSpan::AdoptedParentSpan(Span* parent) {
  t_current_span = parent;
}

AdoptedParentSpan::~AdoptedParentSpan() { t_current_span = nullptr; }

}  // namespace ips::obs
