#include "matrix_profile/mp_engine.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "core/fft.h"
#include "core/simd.h"
#include "matrix_profile/stomp_common.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/scratch_arena.h"

namespace ips {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The engine's counts, bound once to their registry names (obs/metrics.h);
// the registry is the only place they are kept.
struct MpMetrics {
  obs::Counter& joins_computed;
  obs::Counter& qt_sweeps;
  obs::Counter& joins_halved;
  // All-pairs table accounting: tables built, entries materialised per
  // build, and pair contexts filled from a table.
  obs::Counter& artifact_builds;
  obs::Counter& artifact_entries;
  obs::Counter& artifact_reads;
  // Per-metric slice of qt_sweeps ("mp.qt_sweeps.<name>"); the total above
  // is always bumped too, keeping historic consumers intact.
  obs::Counter* sweeps_by_metric[kMetricCount];
};

MpMetrics& Metrics() {
  static MpMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    auto* m = new MpMetrics{registry.GetCounter("mp.joins_computed"),
                            registry.GetCounter("mp.qt_sweeps"),
                            registry.GetCounter("mp.joins_halved"),
                            registry.GetCounter("engine.artifact_table.builds"),
                            registry.GetCounter(
                                "engine.artifact_table.entries"),
                            registry.GetCounter("engine.artifact_table.reads"),
                            {}};
    for (size_t i = 0; i < kMetricCount; ++i) {
      m->sweeps_by_metric[i] = &registry.GetCounter(
          std::string("mp.qt_sweeps.") + MetricName(static_cast<MetricId>(i)));
    }
    return m;
  }();
  return *metrics;
}

void BumpSweeps(size_t n, MetricId metric) {
  MpMetrics& m = Metrics();
  m.qt_sweeps.Add(n);
  m.sweeps_by_metric[static_cast<size_t>(metric)]->Add(n);
}

void ForwardFftInto(std::span<const double> s, size_t padded, bool reversed,
                    std::vector<std::complex<double>>& out) {
  out.assign(padded, std::complex<double>(0.0, 0.0));
  if (reversed) {
    const size_t m = s.size();
    for (size_t i = 0; i < m; ++i) out[i] = s[m - 1 - i];
  } else {
    for (size_t i = 0; i < s.size(); ++i) out[i] = s[i];
  }
  Fft(out, /*inverse=*/false);
}

// The serial kernels' strict-< running minimum over candidates in
// increasing-index order selects the smallest value and, among bitwise-equal
// values, the smallest index. This update rule computes the same selection
// from candidates arriving in ANY order, which is what makes diagonal
// sweeps and chunk merges bitwise identical to the row-order kernels.
inline void UpdateMin(double d, size_t neighbor, double& val, size_t& idx) {
  if (d < val || (d == val && neighbor < idx)) {
    val = d;
    idx = neighbor;
  }
}

// Rounds an element count of an 8-byte type up to a whole number of cache
// lines, so consecutive carves out of one arena span never false-share.
inline size_t RoundUpLane(size_t count) {
  constexpr size_t kLane = ScratchArena::kAlign / sizeof(double);
  return (count + kLane - 1) & ~(kLane - 1);
}

}  // namespace

size_t ArtifactTable::entry_count() const {
  size_t entries = stats.size() + energies.size();
  for (const auto& f : fft_series) entries += f.empty() ? 0 : 1;
  for (const auto& f : fft_query) entries += f.empty() ? 0 : 1;
  for (const auto& s : seeds) entries += s.empty() ? 0 : 1;
  return entries;
}

// -------------------------------------------------------------------- sweep

MatrixProfileEngine::SweepContext MatrixProfileEngine::MakeContextFromTable(
    const ArtifactTable& table, size_t i, size_t j) const {
  const MetricPolicy& policy = GetMetric(table.metric);
  const size_t n = table.views.size();
  SweepContext cx;
  cx.a = table.views[i];
  cx.b = table.views[j];
  cx.window = table.window;
  cx.la = cx.a.size() - table.window + 1;
  cx.lb = cx.b.size() - table.window + 1;
  cx.metric = table.metric;
  if (policy.needs_rolling_stats) {
    cx.stats_a = &table.stats[i];
    cx.stats_b = &table.stats[j];
  }
  if (policy.needs_window_energy) {
    cx.energy_a = &table.energies[i];
    cx.energy_b = &table.energies[j];
  }
  cx.row0 = &table.seeds[i * n + j];
  cx.col0 = &table.seeds[j * n + i];
  cx.self = false;
  cx.exclusion = 0;
  cx.want_b = true;
  return cx;
}

void MatrixProfileEngine::BuildTable(
    const std::vector<std::span<const double>>& views, size_t window,
    MetricId metric, bool self_join, ArtifactTable& table) const {
  table.window = window;
  table.metric = metric;
  table.views = views;
  const size_t n = views.size();
  const MetricPolicy& policy = GetMetric(metric);
  if (policy.needs_rolling_stats) table.stats.resize(n);
  if (policy.needs_window_energy) table.energies.resize(n);

  // Distinct padded sizes among FFT-regime seed targets (usually none:
  // short windows use the naive seed kernel).
  for (const auto& v : views) {
    if (StompSeedUsesFft(window, v.size())) {
      table.padded_sizes.push_back(NextPowerOfTwo(v.size() + window));
    }
  }
  std::sort(table.padded_sizes.begin(), table.padded_sizes.end());
  table.padded_sizes.erase(
      std::unique(table.padded_sizes.begin(), table.padded_sizes.end()),
      table.padded_sizes.end());
  const size_t n_sizes = table.padded_sizes.size();
  table.fft_series.resize(n_sizes == 0 ? 0 : n);
  table.fft_query.resize(n * n_sizes);
  table.seeds.resize(n * n);

  // Pass A, parallel over series: per-window statistics (served by the
  // stats provider when it has them, bitwise identical to computing), the
  // series-side transform at the series' own padded size, and query-side
  // (reversed first window) transforms at every size in play.
  ParallelFor(n, num_threads_, [&](size_t i) {
    if (policy.needs_rolling_stats &&
        (stats_provider_ == nullptr ||
         !stats_provider_->FillRollingStats(views[i], window,
                                            &table.stats[i]))) {
      table.stats[i] = ComputeRollingStats(views[i], window);
    }
    if (policy.needs_window_energy &&
        (stats_provider_ == nullptr ||
         !stats_provider_->FillWindowEnergies(views[i], window,
                                              &table.energies[i]))) {
      table.energies[i] = ComputeWindowEnergies(views[i], window);
    }
    if (n_sizes != 0) {
      if (StompSeedUsesFft(window, views[i].size())) {
        ForwardFftInto(views[i], NextPowerOfTwo(views[i].size() + window),
                       /*reversed=*/false, table.fft_series[i]);
      }
      const auto query = views[i].subspan(0, window);
      for (size_t k = 0; k < n_sizes; ++k) {
        ForwardFftInto(query, table.padded_sizes[k], /*reversed=*/true,
                       table.fft_query[i * n_sizes + k]);
      }
    }
  });

  // Pass B: the QT seed of series i's first window against series j,
  // replicating the kernels' InitialDots dispatch exactly -- short windows
  // go through the naive kernel, long ones through the forward transforms
  // of pass A -- so seeds are bitwise equal to SlidingDotProducts[Naive].
  // The inverse transform's product buffer comes from the worker's arena.
  const auto fill_seed = [&](size_t i, size_t j) {
    std::vector<double>& out = table.seeds[i * n + j];
    const auto query = views[i].subspan(0, window);
    const std::span<const double> y = views[j];
    if (!StompSeedUsesFft(window, y.size())) {
      out = SlidingDotProductsNaive(query, y);
      return;
    }
    const size_t padded = NextPowerOfTwo(y.size() + window);
    const size_t k_size = std::lower_bound(table.padded_sizes.begin(),
                                           table.padded_sizes.end(), padded) -
                          table.padded_sizes.begin();
    const auto& fs = table.fft_series[j];
    const auto& fq = table.fft_query[i * n_sizes + k_size];
    ScratchArena& arena = ScratchArena::ForCurrentThread();
    const ScratchArena::Scope scope(arena);
    std::span<std::complex<double>> prod =
        arena.Alloc<std::complex<double>>(padded);
    for (size_t p = 0; p < padded; ++p) prod[p] = fs[p] * fq[p];
    Fft(prod, /*inverse=*/true);
    out.resize(y.size() - window + 1);
    for (size_t p = 0; p < out.size(); ++p) {
      out[p] = prod[window - 1 + p].real();
    }
  };
  if (self_join) {
    IPS_CHECK(n == 1);
    fill_seed(0, 0);
  } else if (n >= 2) {
    // Every ordered pair (i, j), i != j, in parallel.
    ParallelFor(n * (n - 1), num_threads_, [&](size_t k) {
      const size_t i = k / (n - 1);
      const size_t r = k % (n - 1);
      fill_seed(i, r < i ? r : r + 1);
    });
  }
}

ArtifactTable MatrixProfileEngine::PrepareAllPairs(
    const std::vector<std::span<const double>>& views, size_t window,
    MetricId metric) {
  IPS_CHECK(window >= 2);
  for (const auto& v : views) IPS_CHECK(v.size() >= window);
  IPS_SPAN("mp_artifact_table");
  ArtifactTable table;
  BuildTable(views, window, metric, /*self_join=*/false, table);
  Metrics().artifact_builds.Add(1);
  Metrics().artifact_entries.Add(table.entry_count());
  return table;
}

size_t MatrixProfileEngine::DiagCount(const SweepContext& cx) {
  if (cx.self) {
    return cx.la - 1 > cx.exclusion ? cx.la - 1 - cx.exclusion : 0;
  }
  return cx.la + cx.lb - 1;
}

size_t MatrixProfileEngine::DiagCells(const SweepContext& cx, size_t diag) {
  if (cx.self) {
    return cx.la - (cx.exclusion + 1 + diag);
  }
  if (diag >= cx.la - 1) {  // c = diag - (la - 1) >= 0
    const size_t c = diag - (cx.la - 1);
    return std::min(cx.la, cx.lb - c);
  }
  const size_t d = (cx.la - 1) - diag;  // c < 0, starts at row d
  return std::min(cx.lb, cx.la - d);
}

size_t MatrixProfileEngine::ChunkDiagonals(const SweepContext& cx,
                                           size_t chunks,
                                           std::span<size_t> out) const {
  const size_t count = DiagCount(cx);
  size_t total = 0;
  for (size_t k = 0; k < count; ++k) total += DiagCells(cx, k);
  chunks = std::max<size_t>(1, std::min(chunks, count));
  // Sharding only pays off once each chunk amortises a thread spawn (~tens
  // of microseconds), so small sweeps stay single-chunk (and take the
  // row-order fast path). Never affects results, only wall-clock.
  chunks = std::min(chunks, std::max<size_t>(1, total / min_cells_per_chunk_));
  IPS_CHECK(out.size() >= chunks + 1);

  // Greedy cell-balanced boundaries. Chunk boundaries depend only on the
  // chunk count, and even that never affects results -- UpdateMin is
  // visit-order independent.
  size_t written = 0;
  out[written++] = 0;
  const size_t target = (total + chunks - 1) / chunks;
  size_t acc = 0;
  for (size_t k = 0; k < count; ++k) {
    acc += DiagCells(cx, k);
    if (acc >= target && written < chunks) {
      out[written++] = k + 1;
      acc = 0;
    }
  }
  if (out[written - 1] != count) out[written++] = count;
  return written;
}

void MatrixProfileEngine::SweepPartial::Reset(const SweepContext& cx) {
  IPS_CHECK(a_val.size() == cx.la && a_idx.size() == cx.la);
  std::fill(a_val.begin(), a_val.end(), kInf);
  std::fill(a_idx.begin(), a_idx.end(), kNoNeighbor);
  if (cx.want_b) {
    IPS_CHECK(b_val.size() == cx.lb && b_idx.size() == cx.lb);
    std::fill(b_val.begin(), b_val.end(), kInf);
    std::fill(b_idx.begin(), b_idx.end(), kNoNeighbor);
  }
}

template <typename CellFn>
void MatrixProfileEngine::SweepDiagonalsImpl(const SweepContext& cx,
                                             size_t diag_begin,
                                             size_t diag_end, SweepPartial& p,
                                             CellFn cell) {
  const std::span<const double> a = cx.a;
  const std::span<const double> b = cx.self ? cx.a : cx.b;
  const size_t w = cx.window;

  for (size_t k = diag_begin; k < diag_end; ++k) {
    const size_t cells = DiagCells(cx, k);
    size_t i, j;  // first cell of the diagonal
    double qt;
    if (cx.self) {
      i = 0;
      j = cx.exclusion + 1 + k;
      qt = (*cx.row0)[j];
    } else if (k >= cx.la - 1) {
      i = 0;
      j = k - (cx.la - 1);
      qt = (*cx.row0)[j];
    } else {
      i = (cx.la - 1) - k;
      j = 0;
      qt = (*cx.col0)[i];
    }

    for (size_t s = 0;; ++s) {
      const double d = cell(i, j, qt);
      UpdateMin(d, j, p.a_val[i], p.a_idx[i]);
      if (cx.self) {
        UpdateMin(d, i, p.a_val[j], p.a_idx[j]);
      } else if (cx.want_b) {
        UpdateMin(d, i, p.b_val[j], p.b_idx[j]);
      }
      if (s + 1 >= cells) break;
      ++i;
      ++j;
      qt = StompAdvance(qt, a, b, i, j, w);
    }
  }
}

void MatrixProfileEngine::SweepDiagonals(const SweepContext& cx,
                                         size_t diag_begin, size_t diag_end,
                                         SweepPartial& p) {
  const size_t w = cx.window;
  switch (cx.metric) {
    case MetricId::kZNormEuclidean: {
      const double* ma = cx.stats_a->means.data();
      const double* sa = cx.stats_a->stds.data();
      const double* mb = cx.stats_b->means.data();
      const double* sb = cx.stats_b->stds.data();
      SweepDiagonalsImpl(cx, diag_begin, diag_end, p,
                         [=](size_t i, size_t j, double qt) {
                           return StompZNormDistance(qt, w, ma[i], sa[i],
                                                     mb[j], sb[j]);
                         });
      return;
    }
    case MetricId::kRawSquaredEuclidean: {
      const double* ea = cx.energy_a->data();
      const double* eb = cx.energy_b->data();
      SweepDiagonalsImpl(cx, diag_begin, diag_end, p,
                         [=](size_t i, size_t j, double qt) {
                           return StompRawDistance(qt, w, ea[i], eb[j]);
                         });
      return;
    }
    case MetricId::kEuclidean: {
      const double* ea = cx.energy_a->data();
      const double* eb = cx.energy_b->data();
      SweepDiagonalsImpl(cx, diag_begin, diag_end, p,
                         [=](size_t i, size_t j, double qt) {
                           return StompL2Distance(qt, ea[i], eb[j]);
                         });
      return;
    }
    case MetricId::kCosine: {
      // sqrt is correctly rounded, so recomputing the window norms per cell
      // matches the row kernel's precomputed norms bitwise.
      const double* ea = cx.energy_a->data();
      const double* eb = cx.energy_b->data();
      SweepDiagonalsImpl(cx, diag_begin, diag_end, p,
                         [=](size_t i, size_t j, double qt) {
                           return StompCosineDistance(qt, std::sqrt(ea[i]),
                                                      std::sqrt(eb[j]));
                         });
      return;
    }
  }
  IPS_CHECK(false);  // unreachable: all MetricId values handled above
}

void MatrixProfileEngine::RowSweep(const SweepContext& cx, SweepPartial& p) {
  const std::span<const double> a = cx.a;
  const std::span<const double> b = cx.self ? cx.a : cx.b;
  const size_t w = cx.window;
  const MetricKernels& kernels = GetMetric(cx.metric).kernels;
  const double* ma = cx.stats_a ? cx.stats_a->means.data() : nullptr;
  const double* sa = cx.stats_a ? cx.stats_a->stds.data() : nullptr;
  const double* mb = cx.stats_b ? cx.stats_b->means.data() : nullptr;
  const double* sb = cx.stats_b ? cx.stats_b->stds.data() : nullptr;
  const double* ea = cx.energy_a ? cx.energy_a->data() : nullptr;
  const double* eb = cx.energy_b ? cx.energy_b->data() : nullptr;
  // Per-window statistics of the column side from offset `off`, and of one
  // row window -- the policy row kernel reads whichever arrays its metric
  // declared (needs_* flags); the rest stay null / zero.
  const auto row_view = [&](size_t off) {
    MetricRowView v;
    if (mb != nullptr) {
      v.means = mb + off;
      v.stds = sb + off;
    }
    if (eb != nullptr) v.energies = eb + off;
    return v;
  };
  const auto cell_at = [&](size_t i) {
    MetricCell c;
    if (ma != nullptr) {
      c.mean = ma[i];
      c.std = sa[i];
    }
    if (ea != nullptr) c.energy = ea[i];
    return c;
  };

  // In-place right-to-left row recurrence, exactly as the serial kernels:
  // the QT pass streams over the row (no loop-carried stall, unlike a
  // diagonal walk) and each cell's chained value is identical to the
  // diagonal sweep's, so both paths yield the same profiles bitwise. The
  // one difference from the kernels is that each cell feeds BOTH sides'
  // minima -- the pair-symmetric halving.
  //
  // Both row passes are vectorised (core/simd.h): QtRowAdvance performs the
  // in-place update -- every new qt[j] reads only pre-update values, so
  // blocks of lanes are independent outputs -- and the policy's stomp_row
  // kernel evaluates the metric's per-cell distance into `dist`. The
  // min/index scans stay scalar: they are selection recurrences whose
  // result feeds the next comparison, and scalar is what preserves the
  // serial kernels' rule below.
  //
  // Updates here use plain strict < (not the tie-aware UpdateMin): a full
  // row-order sweep visits cells in the kernels' own order -- for a fixed
  // row target i the candidates j arrive in increasing order, and for a
  // fixed column target j the candidates i do too -- so first-strictly-
  // smaller-wins IS the serial tie rule. The tie-aware comparison is only
  // needed when chunk partials merge out of visit order.
  // The QT and distance rows come from the worker's arena (an inner scope,
  // so nested sweeps on the caller thread rewind exactly their own carves).
  ScratchArena& arena = ScratchArena::ForCurrentThread();
  const ScratchArena::Scope scope(arena);
  const size_t qn = cx.row0->size();
  std::span<double> rows = arena.Alloc<double>(RoundUpLane(qn) + cx.lb);
  std::span<double> qt_row = rows.subspan(0, qn);
  std::copy(cx.row0->begin(), cx.row0->end(), qt_row.begin());
  double* const qt = qt_row.data();
  const std::vector<double>& col0 = *cx.col0;
  double* const av = p.a_val.data();
  size_t* const ai = p.a_idx.data();
  double* const dist = rows.data() + RoundUpLane(qn);

  if (cx.self) {
    const size_t l = cx.la;
    for (size_t i = 0; i < l; ++i) {
      if (i > 0) {
        simd::QtRowAdvance(qt, l, a.data(), w, a[i - 1], a[i + w - 1]);
        qt[0] = col0[i];  // QT(i, 0) = QT(0, i) by symmetry
      }
      const size_t start = i + cx.exclusion + 1;
      if (start >= l) continue;
      kernels.stomp_row(qt + start, row_view(start), l - start, w, cell_at(i),
                        dist);
      double best = av[i];
      size_t best_j = ai[i];
      for (size_t j = start; j < l; ++j) {
        const double d = dist[j - start];
        if (d < best) {
          best = d;
          best_j = j;
        }
        if (d < av[j]) {
          av[j] = d;
          ai[j] = i;
        }
      }
      av[i] = best;
      ai[i] = best_j;
    }
    return;
  }

  double* const bv = p.b_val.data();
  size_t* const bi = p.b_idx.data();
  for (size_t i = 0; i < cx.la; ++i) {
    if (i > 0) {
      simd::QtRowAdvance(qt, cx.lb, b.data(), w, a[i - 1], a[i + w - 1]);
      qt[0] = col0[i];
    }
    kernels.stomp_row(qt, row_view(0), cx.lb, w, cell_at(i), dist);
    double best = kInf;
    size_t best_j = kNoNeighbor;
    if (cx.want_b) {
      for (size_t j = 0; j < cx.lb; ++j) {
        const double d = dist[j];
        if (d < best) {
          best = d;
          best_j = j;
        }
        if (d < bv[j]) {
          bv[j] = d;
          bi[j] = i;
        }
      }
    } else {
      for (size_t j = 0; j < cx.lb; ++j) {
        const double d = dist[j];
        if (d < best) {
          best = d;
          best_j = j;
        }
      }
    }
    av[i] = best;
    ai[i] = best_j;
  }
}

void MatrixProfileEngine::MergePartial(const SweepContext& cx,
                                       const SweepPartial& p, PairJoin& out) {
  for (size_t i = 0; i < cx.la; ++i) {
    UpdateMin(p.a_val[i], p.a_idx[i], out.a_vs_b.values[i],
              out.a_vs_b.indices[i]);
  }
  if (cx.want_b) {
    for (size_t j = 0; j < cx.lb; ++j) {
      UpdateMin(p.b_val[j], p.b_idx[j], out.b_vs_a.values[j],
                out.b_vs_a.indices[j]);
    }
  }
}

void MatrixProfileEngine::Sweep(std::span<const SweepContext> contexts,
                                std::span<PairJoin> joins) {
  const size_t count = contexts.size();
  IPS_CHECK(count >= 1 && joins.size() == count);

  // All per-call setup -- chunk bounds, work items and partial-minima
  // storage -- is carved from the caller's arena under one scope: the
  // steady-state call performs no heap allocation at all.
  ScratchArena& arena = ScratchArena::ForCurrentThread();
  const ScratchArena::Scope scope(arena);

  // Phase 1, parallel over contexts: chunk boundaries and output profile
  // buffers (assign reuses capacity on repeat batches). With more threads
  // than contexts, each context's diagonals are split so every worker
  // stays busy.
  const size_t chunks_per_context =
      count >= num_threads_ ? 1 : (num_threads_ + count - 1) / count;
  const size_t bstride = chunks_per_context + 1;
  std::span<size_t> bounds = arena.Alloc<size_t>(count * bstride);
  std::span<size_t> parts = arena.Alloc<size_t>(count);
  ParallelFor(count, num_threads_, [&](size_t t) {
    const SweepContext& cx = contexts[t];
    parts[t] = ChunkDiagonals(cx, chunks_per_context,
                              bounds.subspan(t * bstride, bstride)) -
               1;
    joins[t].a_vs_b.values.assign(cx.la, kInf);
    joins[t].a_vs_b.indices.assign(cx.la, kNoNeighbor);
    if (cx.want_b) {
      joins[t].b_vs_a.values.assign(cx.lb, kInf);
      joins[t].b_vs_a.indices.assign(cx.lb, kNoNeighbor);
    }
  });

  // Phase 2 layout: (context, chunk) work items in context order, each
  // with a cache-line-strided slice of one flat partial-minima carve, so
  // concurrent chunk writers never false-share.
  struct WorkItem {
    size_t context;
    size_t chunk;
  };
  const auto b_lane = [](const SweepContext& cx) {
    return cx.want_b ? RoundUpLane(cx.lb) : 0;
  };
  size_t item_count = 0;
  size_t value_count = 0;
  for (size_t t = 0; t < count; ++t) {
    item_count += parts[t];
    value_count +=
        parts[t] * (RoundUpLane(contexts[t].la) + b_lane(contexts[t]));
  }
  if (item_count == 0) return;  // only sweeps without diagonals
  std::span<WorkItem> items = arena.Alloc<WorkItem>(item_count);
  std::span<SweepPartial> partials = arena.Alloc<SweepPartial>(item_count);
  std::span<double> vals = arena.Alloc<double>(value_count);
  std::span<size_t> idxs = arena.Alloc<size_t>(value_count);
  {
    size_t pos = 0;
    size_t off = 0;
    for (size_t t = 0; t < count; ++t) {
      const SweepContext& cx = contexts[t];
      const size_t va = RoundUpLane(cx.la);
      const size_t vb = b_lane(cx);
      for (size_t c = 0; c < parts[t]; ++c, ++pos, off += va + vb) {
        new (&items[pos]) WorkItem{t, c};
        SweepPartial& p = *new (&partials[pos]) SweepPartial();
        p.a_val = vals.subspan(off, cx.la);
        p.a_idx = idxs.subspan(off, cx.la);
        if (cx.want_b) {
          p.b_val = vals.subspan(off + va, cx.lb);
          p.b_idx = idxs.subspan(off + va, cx.lb);
        }
      }
    }
  }

  // Phase 2, parallel over work items with private partials.
  ParallelFor(item_count, num_threads_, [&](size_t w) {
    const WorkItem& it = items[w];
    const SweepContext& cx = contexts[it.context];
    partials[w].Reset(cx);
    if (parts[it.context] == 1) {
      // Unsharded context: the row-order fast path (bitwise identical to
      // the diagonal walk -- same seeds, same chained QT values).
      RowSweep(cx, partials[w]);
    } else {
      SweepDiagonals(cx, bounds[it.context * bstride + it.chunk],
                     bounds[it.context * bstride + it.chunk + 1],
                     partials[w]);
    }
  });

  // Phase 3, serial merge in item order. Each context's chunks merge into
  // that context's own outputs, and UpdateMin is visit-order independent.
  for (size_t w = 0; w < item_count; ++w) {
    MergePartial(contexts[items[w].context], partials[w],
                 joins[items[w].context]);
  }
}

// -------------------------------------------------------------- public API

MatrixProfile MatrixProfileEngine::SelfJoin(std::span<const double> series,
                                            size_t window, size_t exclusion,
                                            MetricId metric) {
  IPS_CHECK(window >= 2);
  IPS_CHECK(series.size() > window);
  if (exclusion == 0) exclusion = DefaultExclusionZone(window);
  IPS_SPAN("mp_self_join");
  BumpSweeps(1, metric);
  Metrics().joins_computed.Add(1);

  ArtifactTable table;
  BuildTable({series}, window, metric, /*self_join=*/true, table);
  SweepContext cx = MakeContextFromTable(table, 0, 0);
  cx.self = true;
  cx.exclusion = exclusion;
  cx.want_b = false;
  PairJoin join;
  Sweep({&cx, 1}, {&join, 1});
  return std::move(join.a_vs_b);
}

MatrixProfile MatrixProfileEngine::AbJoin(std::span<const double> a,
                                          std::span<const double> b,
                                          size_t window, MetricId metric) {
  IPS_CHECK(window >= 2);
  IPS_CHECK(a.size() >= window);
  IPS_CHECK(b.size() >= window);
  IPS_SPAN("mp_ab_join");
  BumpSweeps(1, metric);
  Metrics().joins_computed.Add(1);

  ArtifactTable table;
  BuildTable({a, b}, window, metric, /*self_join=*/false, table);
  SweepContext cx = MakeContextFromTable(table, 0, 1);
  cx.want_b = false;
  PairJoin join;
  Sweep({&cx, 1}, {&join, 1});
  return std::move(join.a_vs_b);
}

std::vector<PairJoin> MatrixProfileEngine::JoinAllPairs(
    const std::vector<std::span<const double>>& views, size_t window,
    MetricId metric) {
  IPS_CHECK(window >= 2);
  for (const auto& v : views) IPS_CHECK(v.size() >= window);
  std::vector<PairJoin> joins;
  if (views.size() < 2) return joins;
  IPS_SPAN("mp_join_all_pairs");
  // Phase 0: the batch's artifacts -- one call-local immutable table built
  // by a parallel precompute pass; every pair context reads it lock-free
  // by index.
  SweepAllPairs(PrepareAllPairs(views, window, metric), joins);
  return joins;
}

void MatrixProfileEngine::JoinAllPairsInto(const ArtifactTable& table,
                                           std::vector<PairJoin>& joins) {
  IPS_SPAN("mp_join_all_pairs");
  SweepAllPairs(table, joins);
}

void MatrixProfileEngine::SweepAllPairs(const ArtifactTable& table,
                                        std::vector<PairJoin>& joins) {
  const size_t n = table.views.size();
  const size_t pair_count = n < 2 ? 0 : n * (n - 1) / 2;
  joins.resize(pair_count);
  if (pair_count == 0) return;
  BumpSweeps(pair_count, table.metric);
  Metrics().joins_computed.Add(2 * pair_count);
  Metrics().joins_halved.Add(pair_count);
  Metrics().artifact_reads.Add(pair_count);

  // Pair contexts in lexicographic (i, j) order, read from the table and
  // carved from the caller's arena.
  ScratchArena& arena = ScratchArena::ForCurrentThread();
  const ScratchArena::Scope scope(arena);
  std::span<SweepContext> contexts = arena.Alloc<SweepContext>(pair_count);
  size_t t = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j, ++t) {
      joins[t].a = i;
      joins[t].b = j;
      new (&contexts[t]) SweepContext(MakeContextFromTable(table, i, j));
    }
  }
  Sweep(contexts, joins);
}

}  // namespace ips
