// Low-overhead span tracer: RAII wall-clock attribution by nesting path.
//
// A Span marks one timed section; spans opened while another span is alive
// on the same thread nest under it, and the full slash-joined path
// ("fit/discover/candidate_gen/instance_profile") is the aggregation key.
// On destruction a span folds its monotonic-clock duration into the
// process-wide TraceRegistry: one mutex-guarded map update per span, so
// spans belong on stage and batch boundaries, not inner loops (counters in
// obs/metrics.h cover per-item events).
//
// Run-level attribution is a delta of two snapshots, exactly like the
// metrics registry: capture TraceRegistry::Snapshot() before the run and
// DeltaSince() after. Aggregated times are monotonic, so deltas are safe
// under concurrent runs (a concurrent run's spans are attributed to
// whichever observer's window they land in -- same contract as the
// pre-existing thread-pool counter deltas).
//
// Threading: a Span must be destroyed on the thread that created it, in
// LIFO order (automatic storage guarantees both). A thread starts with no
// current span, so its spans root their own path, unless it adopts a span
// of another thread as its parent (AdoptedParentSpan): pool workers adopt
// the pool_region span of the region they join, so their spans nest under
// the stage that dispatched the region. Children of a pool_region sum
// thread-seconds, so together they may exceed the region's wall time.
//
// The tracer has one configuration, always compiled in. Spans only
// observe: discovery output never depends on them.

#ifndef IPS_OBS_TRACE_H_
#define IPS_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ips::obs {

/// Cumulative totals of one span path.
struct SpanStats {
  uint64_t count = 0;    ///< completed spans on this path
  double seconds = 0.0;  ///< summed wall-clock duration
};

/// Point-in-time copy of the registry's per-path aggregation (ordered so
/// every rendering is deterministic).
using TraceSnapshot = std::map<std::string, SpanStats>;

/// One aggregated span of a report: a path plus its totals.
struct TraceSpan {
  std::string path;
  uint64_t count = 0;
  double seconds = 0.0;

  /// Last path segment ("candidate_gen" for "fit/discover/candidate_gen").
  std::string Leaf() const;
  /// Nesting depth: number of '/' separators in the path.
  size_t Depth() const;
};

/// The spans of one observation window, sorted by path (parents precede
/// children). The unit RunResult carries and the exporters consume.
struct TraceReport {
  std::vector<TraceSpan> spans;

  bool empty() const { return spans.empty(); }
  /// The span with exactly this path, or nullptr.
  const TraceSpan* Find(const std::string& path) const;
  /// Summed seconds over every span whose Leaf() == `leaf`. How
  /// IpsRunStats::FromRegistry maps stage names to fields regardless of
  /// which pipeline entry point (and hence path prefix) produced them.
  double LeafSeconds(const std::string& leaf) const;
  /// Summed count over every span whose Leaf() == `leaf`.
  uint64_t LeafCount(const std::string& leaf) const;
};

class TraceRegistry {
 public:
  /// The process-wide registry (leaky singleton, like MetricsRegistry).
  static TraceRegistry& Instance();

  TraceRegistry(const TraceRegistry&) = delete;
  TraceRegistry& operator=(const TraceRegistry&) = delete;

  /// Folds one completed span into the aggregation. Called by ~Span; also
  /// the hook for recording externally-timed sections under a fixed path.
  void Record(const std::string& path, double seconds);

  TraceSnapshot Snapshot() const;

  /// Per-path `after - before`, dropping zero-count entries.
  static TraceReport Delta(const TraceSnapshot& before,
                           const TraceSnapshot& after);

  /// Delta(before, Snapshot()).
  TraceReport DeltaSince(const TraceSnapshot& before) const;

 private:
  TraceRegistry() = default;

  mutable std::mutex mu_;
  TraceSnapshot totals_;
};

/// RAII timed section. See the file comment for nesting and threading.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// The slash-joined aggregation path of this span.
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  Span* parent_;
  std::chrono::steady_clock::time_point start_;
};

/// Makes `parent` -- a span open on another thread -- the current span of
/// this thread for the helper's lifetime, so spans opened here nest under
/// it. On destruction this thread has no current span again. For threads
/// with no span of their own open (pool workers adopting the span of the
/// region they join); `parent` must outlive the helper.
class AdoptedParentSpan {
 public:
  explicit AdoptedParentSpan(Span* parent);
  ~AdoptedParentSpan();

  AdoptedParentSpan(const AdoptedParentSpan&) = delete;
  AdoptedParentSpan& operator=(const AdoptedParentSpan&) = delete;
};

#define IPS_OBS_CONCAT_INNER(a, b) a##b
#define IPS_OBS_CONCAT(a, b) IPS_OBS_CONCAT_INNER(a, b)

/// Opens a span covering the rest of the enclosing scope:
///   IPS_SPAN("pruning");
#define IPS_SPAN(name) \
  ::ips::obs::Span IPS_OBS_CONCAT(ips_obs_span_, __LINE__)(name)

}  // namespace ips::obs

#endif  // IPS_OBS_TRACE_H_
