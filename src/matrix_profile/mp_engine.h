// Batched matrix-profile engine.
//
// The instance-profile stage (paper Defs. 8-9, Alg. 1 line 5) is the
// dominant cost of IPS discovery: a sample of Q_S instances needs every
// ordered AB-join among its members, per candidate length, per sample. The
// free kernels in matrix_profile.h recompute rolling statistics and seed
// sliding-dot-products for every join and compute each unordered pair
// twice. The MatrixProfileEngine amortises all of that, the way the
// DistanceEngine (core/distance_engine.h) amortises the Def. 4 layer:
//
//  * one immutable, index-addressed ArtifactTable per batch -- per-series
//    RollingStats or window energies (always computed from the values by
//    core/znorm.cc, the one source of rolling statistics), forward FFTs
//    and every ordered pair's seed sliding-dot-products -- built in one
//    parallel pass and read lock-free by every join of the batch. The
//    ad-hoc entry points (SelfJoin, AbJoin) build the same table for
//    their one or two series;
//  * pair symmetry: one QT sweep over an unordered pair yields the row
//    minima (the a-side profile) AND the column minima (the b-side
//    profile), because QT values along a diagonal and the z-normalised
//    distance are both bitwise symmetric under exchanging the sides. This
//    halves the O(|sample|^2) join count of an all-pairs batch;
//  * one sweep loop: every entry point hands its sweep contexts to the
//    same (chunk bounds -> arena partials -> row or diagonal sweep ->
//    serial merge) loop. When sweeps are fewer than threads, a sweep's
//    diagonals are split into cell-balanced chunks over worker threads,
//    each with private scratch, and the per-chunk partial minima are
//    merged serially -- so profiles are bitwise identical to AbJoinProfile
//    / SelfJoinProfile at every thread count.
//
// Bitwise-identity argument, in full (tests/mp_engine_test.cc asserts it):
// every QT value chains along its diagonal from a row-0 or column-0 seed by
// the shared StompAdvance step, which both the serial kernels and the
// engine apply in the same order from the same seeds; StompZNormDistance is
// written to be exactly symmetric (stomp_common.h); and a serial kernel's
// strict-< running minimum over candidates in increasing-index order equals
// "smallest value, smallest index achieving it", which is what the
// order-independent (value, index) merge rule computes.
//
// Thread-safety contract: all public methods may be called concurrently on
// one engine; the engine holds no mutable state. Its counts ("mp.*",
// "engine.artifact_table.*") go straight to the process-wide metrics
// registry (obs/metrics.h); read them as a Snapshot()/DeltaSince() pair
// around the code of interest.
//
// Lifetime contract: the engine keeps nothing between calls. SelfJoin,
// AbJoin and JoinAllPairs build a call-local table, so their inputs may be
// freed or rewritten between calls. PrepareAllPairs returns a table the
// caller owns; it borrows the views' storage, which must stay unchanged
// for as long as the caller feeds the table to JoinAllPairsInto.

#ifndef IPS_MATRIX_PROFILE_MP_ENGINE_H_
#define IPS_MATRIX_PROFILE_MP_ENGINE_H_

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

#include "core/metric.h"
#include "core/znorm.h"
#include "matrix_profile/matrix_profile.h"
#include "util/parallel.h"

namespace ips {

/// Immutable, index-addressed artifacts of one batch: everything the pair
/// loop reads, precomputed in one parallel pass so the loop itself is
/// lock-free -- contexts address artifacts by batch index. Each entry is
/// computed exactly as the serial kernels compute it (ComputeRollingStats,
/// ComputeWindowEnergies, SlidingDotProducts[Naive]), so joins are bitwise
/// equal to AbJoinProfile / SelfJoinProfile.
///
/// Lifetime (docs/memory.md): the table borrows the batch's series storage
/// via spans and owns everything else. Whoever built it owns it -- a join
/// call for its own duration, or a PrepareAllPairs caller.
struct ArtifactTable {
  size_t window = 0;
  MetricId metric = MetricId::kZNormEuclidean;
  std::vector<std::span<const double>> views;
  /// Per-series rolling mean/std windows (needs_rolling_stats metrics).
  std::vector<RollingStats> stats;
  /// Per-series window energies (needs_window_energy metrics).
  std::vector<std::vector<double>> energies;
  /// Distinct padded FFT sizes among the batch's FFT-regime targets,
  /// sorted. Empty at short windows (the naive-seed regime).
  std::vector<size_t> padded_sizes;
  /// Forward transform of series i zero-padded to ITS target size
  /// NextPowerOfTwo(len_i + window); empty when series i is never an
  /// FFT-regime target.
  std::vector<std::vector<std::complex<double>>> fft_series;
  /// fft_query[i * padded_sizes.size() + k]: forward transform of series
  /// i's reversed first window, zero-padded to padded_sizes[k].
  std::vector<std::vector<std::complex<double>>> fft_query;
  /// seeds[i * views.size() + j]: sliding dot products of series i's first
  /// window against every window of series j -- the row-0 / column-0 QT
  /// seeds. Every i != j entry is filled; the diagonal stays empty except
  /// in a self-join table (one series), whose seeds[0] serves as both row
  /// 0 and column 0.
  std::vector<std::vector<double>> seeds;

  /// Number of materialised artifact entries (counter fodder).
  size_t entry_count() const;
};

/// Both directions of one unordered AB-join: `a_vs_b` annotates windows of
/// the pair's first series with their nearest window in the second
/// (== AbJoinProfile(a, b, window) bitwise) and `b_vs_a` the reverse.
struct PairJoin {
  size_t a = 0;  ///< batch index of the first series
  size_t b = 0;  ///< batch index of the second series
  MatrixProfile a_vs_b;
  MatrixProfile b_vs_a;
};

class MatrixProfileEngine {
 public:
  /// `num_threads` shards every join and batch (1 = serial, 0 = auto:
  /// HardwareThreads()). The thread count never changes results, only
  /// wall-clock.
  explicit MatrixProfileEngine(size_t num_threads = 1)
      : num_threads_(ResolveNumThreads(num_threads)) {}

  MatrixProfileEngine(const MatrixProfileEngine&) = delete;
  MatrixProfileEngine& operator=(const MatrixProfileEngine&) = delete;

  size_t num_threads() const { return num_threads_; }
  void set_num_threads(size_t n) { num_threads_ = ResolveNumThreads(n); }

  /// Minimum QT cells per sweep chunk before another shard is opened; small
  /// sweeps stay single-chunk and take the row-order fast path. A perf
  /// knob only -- chunking never changes results. Tests lower it to force
  /// the sharded diagonal path on small inputs.
  void set_min_cells_per_chunk(size_t cells) {
    min_cells_per_chunk_ = cells == 0 ? 1 : cells;
  }

  /// SelfJoinProfile(series, window, exclusion), bitwise identical, with
  /// the sweep's diagonals sharded over the engine's threads. `metric`
  /// selects the distance function (core/metric.h); the default keeps the
  /// historic z-normalised behaviour, and non-default metrics share the
  /// exact same QT machinery with only the O(1) distance step swapped.
  MatrixProfile SelfJoin(std::span<const double> series, size_t window,
                         size_t exclusion = 0,
                         MetricId metric = MetricId::kZNormEuclidean);

  /// AbJoinProfile(a, b, window), bitwise identical. Use JoinAllPairs({a,
  /// b}) when the reverse direction is needed too -- this entry point runs
  /// the sweep without collecting column minima.
  MatrixProfile AbJoin(std::span<const double> a, std::span<const double> b,
                       size_t window,
                       MetricId metric = MetricId::kZNormEuclidean);

  /// Every unordered pair (i < j) of `views`, each computed once via the
  /// pair-symmetric sweep: row minima give a_vs_b, column minima give
  /// b_vs_a. Pair symmetry holds for every registered metric -- each
  /// per-cell distance helper groups its operands so exchanging the sides
  /// only commutes single IEEE operations (stomp_common.h). Result t
  /// covers the t-th pair of the lexicographic (i, j) enumeration; all
  /// profiles are bitwise identical to the serial AbJoinProfile in both
  /// directions, for any thread count. Requires every view to be at least
  /// `window` long.
  std::vector<PairJoin> JoinAllPairs(
      const std::vector<std::span<const double>>& views, size_t window,
      MetricId metric = MetricId::kZNormEuclidean);

  /// JoinAllPairs over a table from PrepareAllPairs (its views, window and
  /// metric), writing into `joins`: profiles reuse whatever capacity
  /// `joins` already holds, so repeat batches over one held table perform
  /// no output allocations (the serving-loop form). Same results, bitwise.
  void JoinAllPairsInto(const ArtifactTable& table,
                        std::vector<PairJoin>& joins);

  /// Builds the batch's immutable artifact table in one parallel
  /// precompute pass: per-series statistics, forward FFTs and all
  /// ordered-pair QT seeds. The caller owns the result; holding it across
  /// JoinAllPairsInto calls moves the whole artifact cost out of the joins.
  ArtifactTable PrepareAllPairs(
      const std::vector<std::span<const double>>& views, size_t window,
      MetricId metric = MetricId::kZNormEuclidean);

 private:
  /// One sweep's immutable inputs: the pair, its per-window statistics
  /// (rolling stats and/or window energies, per the metric's needs) and its
  /// row-0 / column-0 QT seeds (table-owned pointers).
  struct SweepContext {
    std::span<const double> a;
    std::span<const double> b;
    size_t window = 0;
    size_t la = 0;  // number of a-side windows
    size_t lb = 0;  // number of b-side windows
    MetricId metric = MetricId::kZNormEuclidean;
    const RollingStats* stats_a = nullptr;  // when needs_rolling_stats
    const RollingStats* stats_b = nullptr;
    const std::vector<double>* energy_a = nullptr;  // when needs_window_energy
    const std::vector<double>* energy_b = nullptr;
    const std::vector<double>* row0 = nullptr;  // QT(0, j)
    const std::vector<double>* col0 = nullptr;  // QT(i, 0)
    bool self = false;      // a and b are the same series
    size_t exclusion = 0;   // self-join trivial-match half-width
    bool want_b = true;     // collect column minima (the b-side profile)
  };

  /// Running minima for (a chunk of) one sweep, viewing an arena carve
  /// owned by the caller. Trivially destructible, so whole arrays of
  /// partials live in arena memory. The merge rule --
  /// smaller value wins, bitwise-equal values go to the smaller neighbour
  /// index -- is visit-order independent, so chunk boundaries never affect
  /// results.
  struct SweepPartial {
    std::span<double> a_val;
    std::span<size_t> a_idx;
    std::span<double> b_val;  // empty for self joins / want_b == false
    std::span<size_t> b_idx;
    void Reset(const SweepContext& cx);
  };

  /// Fills `table` for `views` in one parallel precompute pass: per-series
  /// statistics, forward FFTs and QT seeds. `self_join` marks a one-series
  /// table whose only seed is the series against itself.
  void BuildTable(const std::vector<std::span<const double>>& views,
                  size_t window, MetricId metric, bool self_join,
                  ArtifactTable& table) const;

  /// Builds the sweep context for batch pair (i, j) by indexing the
  /// artifact table -- no locks, no lookups.
  SweepContext MakeContextFromTable(const ArtifactTable& table, size_t i,
                                    size_t j) const;

  /// Walks diagonals [diag_begin, diag_end) of the sweep, updating the
  /// partial. Diagonal indices enumerate c = index - (la - 1) for AB pairs
  /// and c = exclusion + 1 + index for self joins. Dispatches on cx.metric
  /// to an instantiation of SweepDiagonalsImpl.
  static void SweepDiagonals(const SweepContext& cx, size_t diag_begin,
                             size_t diag_end, SweepPartial& partial);

  /// The diagonal walk with the per-cell distance step `cell(i, j, qt)`
  /// inlined per metric (one instantiation each, so the hot loop carries no
  /// per-cell dispatch).
  template <typename CellFn>
  static void SweepDiagonalsImpl(const SweepContext& cx, size_t diag_begin,
                                 size_t diag_end, SweepPartial& partial,
                                 CellFn cell);

  /// Full sweep in row order (the kernels' in-place right-to-left
  /// recurrence), the serial fast path: no loop-carried QT stall, bitwise
  /// identical to SweepDiagonals over every diagonal.
  static void RowSweep(const SweepContext& cx, SweepPartial& partial);

  /// Number of diagonals of the sweep and of cells on one diagonal.
  static size_t DiagCount(const SweepContext& cx);
  static size_t DiagCells(const SweepContext& cx, size_t diag);

  /// Splits [0, DiagCount) into at most `chunks` cell-balanced ranges,
  /// keeping at least min_cells_per_chunk_ cells per range, and writes the
  /// range boundaries into `out` (capacity at least chunks + 1). Returns
  /// the number of boundaries written: one more than the number of ranges,
  /// and 1 (no range) for a sweep without diagonals.
  size_t ChunkDiagonals(const SweepContext& cx, size_t chunks,
                        std::span<size_t> out) const;

  /// The all-pairs sweep over `table` into `joins`, shared by JoinAllPairs
  /// and JoinAllPairsInto (which each open the batch's span around it).
  void SweepAllPairs(const ArtifactTable& table, std::vector<PairJoin>& joins);

  /// The one sweep loop behind every entry point. Sweeps contexts[t]
  /// into joins[t].a_vs_b (and joins[t].b_vs_a when the context wants the
  /// b side): per-context chunk bounds and output buffers, arena-carved
  /// partial minima, one (context, chunk) work item per chunk in context
  /// order -- RowSweep for an unsharded context, SweepDiagonals otherwise
  /// -- and a serial merge in item order. Contexts fewer than threads are
  /// split into enough chunks to keep every thread busy. Needs at least
  /// one context; leaves the joins' a/b indices alone.
  void Sweep(std::span<const SweepContext> contexts,
             std::span<PairJoin> joins);

  /// Merges a partial into the sweep's output profiles (serial).
  static void MergePartial(const SweepContext& cx, const SweepPartial& partial,
                           PairJoin& out);

  size_t num_threads_;
  size_t min_cells_per_chunk_ = size_t{1} << 16;
};

}  // namespace ips

#endif  // IPS_MATRIX_PROFILE_MP_ENGINE_H_
