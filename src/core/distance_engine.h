// Batched subsequence-distance engine.
//
// Every layer of the system -- IPS utility scoring, naive pruning, the
// shapelet transform, the subsequence 1-NN and the SD/shapelet-quality
// baselines -- needs the same primitive: the min-alignment distance between
// a query and one or many series under some registered metric
// (core/metric.h; the paper's Def. 4 and its z-normalised cousin are the
// historic two). Calling the raw kernels in core/distance.h per pair recomputes
// rolling statistics, prefix sums of squares and FFT transforms for every
// call and allocates fresh scratch each time. The DistanceEngine amortises
// all of that, the way the matrix-profile line of work amortises
// normalisation statistics across all queries:
//
//  * a call-local cache of per-series artefacts -- prefix sums of squares,
//    RollingStats keyed by (series, window), forward FFTs keyed by
//    (series, padded size) and z-normalised queries -- shared across every
//    pair of one batch call;
//  * reusable per-thread workspaces, so the radix-2 FFT path and the naive
//    dot-product path stop allocating per call;
//  * batched APIs (pairwise candidate distances, whole-dataset shapelet
//    transforms) that shard over ParallelFor with one output slot per work
//    item, so results are deterministic -- and bitwise identical to the
//    serial core/distance.h kernels -- regardless of thread count.
//
// Thread-safety contract: all public methods may be called concurrently
// from any number of threads on the same engine. A batch call's artefact
// cache is mutex-guarded; cache fills are pure functions of the series
// bytes, so a racing double-compute yields identical values and
// first-insert wins. Parallel batch calls create their worker scratch per
// call; SubsequenceMinMetric and TransformOne use thread-local scratch.
// The engine's counts ("engine.*": profiles, artefact-cache traffic, the
// early-abandon cascade) go straight to the process-wide metrics registry
// (obs/metrics.h); read them as a Snapshot()/DeltaSince() pair.
//
// Lifetime contract: the engine keeps no artefact between calls. A batch
// call keys its cache on the address and length of its inputs, which is
// sound because every input is immutable for the duration of the call;
// the cache dies when the call returns, so callers may free or rewrite
// their storage between calls. Single-pair calls cache nothing.

#ifndef IPS_CORE_DISTANCE_ENGINE_H_
#define IPS_CORE_DISTANCE_ENGINE_H_

#include <complex>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/metric.h"
#include "core/time_series.h"
#include "core/znorm.h"
#include "util/parallel.h"

namespace ips {

/// Per-thread scratch buffers. Owned by the engine's batch calls (one per
/// worker) or by thread-local storage for SubsequenceMinMetric and
/// TransformOne; reused across kernel invocations so the hot path performs
/// no allocations after warmup.
struct DistanceWorkspace {
  std::vector<double> prefix;                 ///< prefix sums of squares
  std::vector<double> dots;                   ///< sliding dot products
  std::vector<double> znorm_query;            ///< z-normalised query
  std::vector<std::complex<double>> fft_sig;  ///< series transform
  std::vector<std::complex<double>> fft_qry;  ///< query transform
  std::vector<std::complex<double>> fft_prod; ///< pointwise product / inverse
  std::vector<double> query_prefix;           ///< query prefix squares (EA)
  /// Per-shapelet argmin of the previous series this worker transformed
  /// (TransformBatch only): seeds the next series' best-so-far so
  /// abandonment triggers early. Purely a visit-order hint -- results stay
  /// bitwise identical whatever the seeds are.
  std::vector<size_t> eab_seed_hints;
};

/// An ordered (query index, series index) work item for MinForPairs.
using IndexPair = std::pair<uint32_t, uint32_t>;

class DistanceEngine {
 public:
  /// `num_threads` shards every batched call (1 = serial, 0 = auto:
  /// HardwareThreads()). The thread count never changes results, only
  /// wall-clock.
  explicit DistanceEngine(size_t num_threads = 1)
      : num_threads_(ResolveNumThreads(num_threads)) {}

  DistanceEngine(const DistanceEngine&) = delete;
  DistanceEngine& operator=(const DistanceEngine&) = delete;

  size_t num_threads() const { return num_threads_; }
  void set_num_threads(size_t n) { num_threads_ = ResolveNumThreads(n); }

  /// Whether the early-abandon lower-bound cascade (docs/pruning.md) serves
  /// min queries in the naive sliding-dots regime. On by default; minima
  /// are bitwise identical either way, so this is a pure performance knob
  /// (IpsOptions::enable_early_abandon plumbs it per run; the dense path
  /// is the parity reference).
  bool early_abandon() const { return early_abandon_; }
  void set_early_abandon(bool on) { early_abandon_ = on; }

  // ------------------------------------------------------------ single pair

  /// SubsequenceDistanceMetric(a, b, metric), bitwise identical, with
  /// scratch reuse (SubsequenceDistance for kRawSquaredEuclidean,
  /// SubsequenceDistanceZNorm for kZNormEuclidean).
  double SubsequenceMinMetric(std::span<const double> a,
                              std::span<const double> b, MetricId metric);

  // ---------------------------------------------------------------- batched

  /// dist[t] == SubsequenceDistanceMetric(views[pairs[t].first],
  /// views[pairs[t].second], metric) for every work item, computed in
  /// parallel. Each view's artefacts are computed once per call and shared
  /// by every pair that touches it. The building block of the pairwise and
  /// matrix APIs; call sites with bespoke pair structure (utility scoring,
  /// naive pruning) drive it directly.
  std::vector<double> MinForPairs(
      const std::vector<std::span<const double>>& views,
      const std::vector<IndexPair>& pairs,
      MetricId metric = MetricId::kRawSquaredEuclidean);

  /// Full n x n matrix (row-major) of pairwise Def. 4 distances between
  /// candidates. `symmetric` computes each unordered pair once and mirrors
  /// it (the CR optimisation); false computes both orders independently
  /// (the Fig. 10(b) no-reuse baseline). The diagonal is exactly 0 either
  /// way, matching SubsequenceDistance(x, x).
  std::vector<double> PairwiseSubsequenceMin(
      const std::vector<Subsequence>& candidates, bool symmetric = true);
  std::vector<double> PairwiseSubsequenceMin(
      const std::vector<std::span<const double>>& views, bool symmetric = true);

  /// Whole-dataset shapelet transform: rows[i][s] is the distance of
  /// data[i] to shapelets[s] under `metric`, bitwise identical to the
  /// serial TransformSeries loop. Streams chunk-granularly (ForEachChunk)
  /// and parallelises over the series of each chunk, so an out-of-core
  /// view's resident set stays one chunk; for in-RAM data the default
  /// single chunk makes this the historic whole-batch parallel loop.
  /// Per-series work is independent, so chunking only reorders visits --
  /// rows are bitwise identical for any chunking and thread count. Each
  /// shapelet's artefacts are computed once per call.
  std::vector<std::vector<double>> TransformBatch(
      const DatasetView& data, const std::vector<Subsequence>& shapelets,
      MetricId metric);

  /// One transform row for a series: row[s] is its distance to
  /// shapelets[s] under `metric`. The series' artefacts are computed once
  /// per call and shared by every shapelet.
  std::vector<double> TransformOne(std::span<const double> series,
                                   const std::vector<Subsequence>& shapelets,
                                   MetricId metric);

 private:
  struct SpanKey {
    const double* data;
    size_t len;
    size_t aux;  // window (stats), padded size (FFT), 0 otherwise
    bool operator==(const SpanKey& o) const {
      return data == o.data && len == o.len && aux == o.aux;
    }
  };
  struct SpanKeyHash {
    size_t operator()(const SpanKey& k) const {
      size_t h = std::hash<const double*>{}(k.data);
      h ^= std::hash<size_t>{}(k.len) + 0x9e3779b97f4a7c15ULL + (h << 6);
      h ^= std::hash<size_t>{}(k.aux) + 0x9e3779b97f4a7c15ULL + (h << 6);
      return h;
    }
  };
  /// A z-normalised query plus its all-zero (flat) flag and the value/
  /// square sums the early-abandon z-norm bound consumes (bound devices
  /// only -- they never enter a returned distance).
  struct ZnQuery {
    std::vector<double> values;
    bool flat = false;
    double sum = 0.0;
    double sum_sq = 0.0;
  };

  /// Mutex-guarded, address-keyed artefact maps, one per batch call (never
  /// a member: it lives exactly as long as the call's immutable inputs).
  /// Fills are pure functions of the series bytes, so a racing
  /// double-compute yields identical values and first-insert wins.
  struct ArtifactCache {
    std::mutex prefix_mu;
    std::unordered_map<SpanKey, std::vector<double>, SpanKeyHash> prefix;
    std::mutex stats_mu;
    std::unordered_map<SpanKey, RollingStats, SpanKeyHash> stats;
    std::mutex fft_mu;
    // aux = padded size; the reversed (query-side) transforms get their
    // own map so a key never aliases a series-side transform.
    std::unordered_map<SpanKey, std::vector<std::complex<double>>,
                       SpanKeyHash>
        fft_series;
    std::unordered_map<SpanKey, std::vector<std::complex<double>>,
                       SpanKeyHash>
        fft_query;
    std::mutex znq_mu;
    std::unordered_map<SpanKey, ZnQuery, SpanKeyHash> znq;
  };

  // Cache accessors: return a stable pointer to the artefact in `cache`,
  // or nullptr when `cache` is null (caller computes into scratch instead).
  const std::vector<double>* CachedPrefix(std::span<const double> s,
                                          ArtifactCache* cache);
  const RollingStats* CachedStats(std::span<const double> s, size_t window,
                                  ArtifactCache* cache);
  const std::vector<std::complex<double>>* CachedFft(
      std::span<const double> s, size_t padded, bool reversed,
      ArtifactCache* cache);
  const ZnQuery* CachedZnQuery(std::span<const double> q,
                               ArtifactCache* cache);


  // Kernels (bitwise identical to the core/distance.h serial paths). Both
  // operands' artefacts live in `cache` (null: computed into scratch). The
  // query span passed to SlidingDotsInto must be address-stable whenever
  // `cache` is set (the z-norm path passes the cached ZnQuery values in
  // that case, never scratch).
  void SlidingDotsInto(std::span<const double> query,
                       std::span<const double> series, ArtifactCache* cache,
                       DistanceWorkspace& ws);
  // The dot family (raw / L2 / cosine) shares one qq + prefix-squares +
  // sliding-dots skeleton and differs only in the policy tail hook; the
  // z-normalised family has its own impl (rolling stats, query z-norm).
  // The impls optionally take a best-so-far seed alignment (a visit-order
  // hint for the early-abandon path; ignored by the dense path) and report
  // the winning alignment back through `argmin_out` so batched transforms
  // can seed the next series. Neither affects returned values.
  double DotMinImpl(std::span<const double> a, std::span<const double> b,
                    ArtifactCache* cache, const MetricPolicy& policy,
                    DistanceWorkspace& ws, size_t seed = simd::kEabNoSeed,
                    size_t* argmin_out = nullptr);
  double ZNormMinImpl(std::span<const double> a, std::span<const double> b,
                      ArtifactCache* cache, DistanceWorkspace& ws,
                      size_t seed = simd::kEabNoSeed,
                      size_t* argmin_out = nullptr);
  // Metric-dispatching wrapper over the two impls above.
  double MinImpl(std::span<const double> a, std::span<const double> b,
                 ArtifactCache* cache, MetricId metric, DistanceWorkspace& ws,
                 size_t seed = simd::kEabNoSeed,
                 size_t* argmin_out = nullptr);

  /// Runs fn(item, workspace) for every item with per-worker scratch.
  template <typename Fn>
  void ParallelItems(size_t count, Fn&& fn);

  size_t num_threads_;
  bool early_abandon_ = true;
};

}  // namespace ips

#endif  // IPS_CORE_DISTANCE_ENGINE_H_
