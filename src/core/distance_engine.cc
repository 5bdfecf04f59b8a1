#include "core/distance_engine.h"

#include <cmath>

#include <algorithm>
#include <limits>
#include <string>

#include "core/distance.h"
#include "core/fft.h"
#include "core/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/parallel.h"

namespace ips {

namespace {

// Scratch for SubsequenceMinMetric and TransformOne; the parallel batch
// calls hand each worker a workspace from a per-call pool instead.
DistanceWorkspace& LocalWorkspace() {
  static thread_local DistanceWorkspace ws;
  return ws;
}

// The engine's counts, bound once to their registry names (obs/metrics.h);
// the registry is the only place they are kept. Run-level consumers
// (IpsRunStats::FromRegistry, the exporters) and tests read deltas of these.
struct EngineMetrics {
  obs::Counter& profiles_computed;
  obs::Counter& cache_hits;
  obs::Counter& cache_misses;
  obs::Histogram& batch_items;
  // Early-abandon cascade totals ("engine.eab.<stage>"), summed over every
  // min query that took the pruned path (docs/pruning.md).
  obs::Counter& eab_candidates;
  obs::Counter& eab_lb_pruned;
  obs::Counter& eab_abandoned;
  obs::Counter& eab_full;
  // Per-metric slice of profiles_computed ("engine.profiles.<name>"), so a
  // mixed-metric run's obs output attributes work to metrics. The total
  // above is always bumped too, keeping historic dashboards intact.
  obs::Counter* profiles_by_metric[kMetricCount];
  // Per-metric slice of the eab totals ("engine.eab.<stage>.<name>"),
  // indexed [metric][stage] with stages ordered candidates, lb_pruned,
  // abandoned, full.
  obs::Counter* eab_by_metric[kMetricCount][4];
};

EngineMetrics& Metrics() {
  static EngineMetrics* metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
    auto* m =
        new EngineMetrics{registry.GetCounter("engine.profiles_computed"),
                          registry.GetCounter("engine.stats_cache_hits"),
                          registry.GetCounter("engine.stats_cache_misses"),
                          registry.GetHistogram("engine.batch_items"),
                          registry.GetCounter("engine.eab.candidates"),
                          registry.GetCounter("engine.eab.lb_pruned"),
                          registry.GetCounter("engine.eab.abandoned"),
                          registry.GetCounter("engine.eab.full"),
                          {},
                          {}};
    static constexpr const char* kEabStages[4] = {"candidates", "lb_pruned",
                                                  "abandoned", "full"};
    for (size_t i = 0; i < kMetricCount; ++i) {
      const char* name = MetricName(static_cast<MetricId>(i));
      m->profiles_by_metric[i] =
          &registry.GetCounter(std::string("engine.profiles.") + name);
      for (size_t s = 0; s < 4; ++s) {
        m->eab_by_metric[i][s] = &registry.GetCounter(
            std::string("engine.eab.") + kEabStages[s] + "." + name);
      }
    }
    return m;
  }();
  return *metrics;
}

// Bumps the registry total and the per-metric labelled counter
// ("engine.profiles.<name>").
void BumpProfiles(MetricId metric) {
  EngineMetrics& m = Metrics();
  m.profiles_computed.Add(1);
  m.profiles_by_metric[static_cast<size_t>(metric)]->Add(1);
}

// Folds one early-abandon kernel invocation's counters into the registry
// totals and per-metric labelled counters ("engine.eab.candidates.<name>"
// etc).
void BumpEab(MetricId metric, const simd::EabCounters& c) {
  EngineMetrics& m = Metrics();
  m.eab_candidates.Add(c.candidates);
  m.eab_lb_pruned.Add(c.lb_pruned);
  m.eab_abandoned.Add(c.abandoned);
  m.eab_full.Add(c.full);
  obs::Counter** slice = m.eab_by_metric[static_cast<size_t>(metric)];
  slice[0]->Add(c.candidates);
  slice[1]->Add(c.lb_pruned);
  slice[2]->Add(c.abandoned);
  slice[3]->Add(c.full);
}

// Prefix sums of squares into `out` (size n + 1). The accumulation order
// matches both DistanceProfileRaw's window-energy prefix and its qq loop,
// so out.back() is bitwise equal to the serial qq.
void PrefixSquaresInto(std::span<const double> s, std::vector<double>& out) {
  out.resize(s.size() + 1);
  out[0] = 0.0;
  for (size_t i = 0; i < s.size(); ++i) out[i + 1] = out[i] + s[i] * s[i];
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

}  // namespace

// ------------------------------------------------------------------- caches

const std::vector<double>* DistanceEngine::CachedPrefix(
    std::span<const double> s, ArtifactCache* cache) {
  if (cache == nullptr) return nullptr;
  const SpanKey key{s.data(), s.size(), 0};
  {
    std::lock_guard<std::mutex> lock(cache->prefix_mu);
    auto it = cache->prefix.find(key);
    if (it != cache->prefix.end()) {
      Metrics().cache_hits.Add(1);
      return &it->second;
    }
  }
  Metrics().cache_misses.Add(1);
  std::vector<double> fresh;
  PrefixSquaresInto(s, fresh);
  std::lock_guard<std::mutex> lock(cache->prefix_mu);
  return &cache->prefix.try_emplace(key, std::move(fresh)).first->second;
}

const RollingStats* DistanceEngine::CachedStats(std::span<const double> s,
                                                size_t window,
                                                ArtifactCache* cache) {
  if (cache == nullptr) return nullptr;
  const SpanKey key{s.data(), s.size(), window};
  {
    std::lock_guard<std::mutex> lock(cache->stats_mu);
    auto it = cache->stats.find(key);
    if (it != cache->stats.end()) {
      Metrics().cache_hits.Add(1);
      return &it->second;
    }
  }
  Metrics().cache_misses.Add(1);
  RollingStats fresh = ComputeRollingStats(s, window);
  std::lock_guard<std::mutex> lock(cache->stats_mu);
  return &cache->stats.try_emplace(key, std::move(fresh)).first->second;
}

const std::vector<std::complex<double>>* DistanceEngine::CachedFft(
    std::span<const double> s, size_t padded, bool reversed,
    ArtifactCache* cache) {
  if (cache == nullptr) return nullptr;
  auto& map = reversed ? cache->fft_query : cache->fft_series;
  const SpanKey key{s.data(), s.size(), padded};
  {
    std::lock_guard<std::mutex> lock(cache->fft_mu);
    auto it = map.find(key);
    if (it != map.end()) {
      Metrics().cache_hits.Add(1);
      return &it->second;
    }
  }
  Metrics().cache_misses.Add(1);
  std::vector<std::complex<double>> fresh;
  ForwardFftInto(s, padded, reversed, fresh);
  std::lock_guard<std::mutex> lock(cache->fft_mu);
  return &map.try_emplace(key, std::move(fresh)).first->second;
}

const DistanceEngine::ZnQuery* DistanceEngine::CachedZnQuery(
    std::span<const double> q, ArtifactCache* cache) {
  if (cache == nullptr) return nullptr;
  const SpanKey key{q.data(), q.size(), 0};
  {
    std::lock_guard<std::mutex> lock(cache->znq_mu);
    auto it = cache->znq.find(key);
    if (it != cache->znq.end()) {
      Metrics().cache_hits.Add(1);
      return &it->second;
    }
  }
  Metrics().cache_misses.Add(1);
  ZnQuery fresh;
  fresh.values = ZNormalize(q);
  fresh.flat = std::all_of(fresh.values.begin(), fresh.values.end(),
                           [](double v) { return v == 0.0; });
  for (double v : fresh.values) {
    fresh.sum += v;
    fresh.sum_sq += v * v;
  }
  std::lock_guard<std::mutex> lock(cache->znq_mu);
  return &cache->znq.try_emplace(key, std::move(fresh)).first->second;
}

// ------------------------------------------------------------------ kernels

// Fills ws.dots with the sliding dot products of `query` against `series`,
// replicating the naive/FFT dispatch of core/distance.cc exactly. With a
// cache, both forward FFTs are fetched from (or inserted into) it; the
// arithmetic is identical either way.
void DistanceEngine::SlidingDotsInto(std::span<const double> query,
                                     std::span<const double> series,
                                     ArtifactCache* cache,
                                     DistanceWorkspace& ws) {
  const size_t m = query.size();
  const size_t n = series.size();
  const size_t count = n - m + 1;
  ws.dots.resize(count);

  if (m < kFftCutoff || !ShouldUseFftSlidingProducts(m, n)) {
    simd::SlidingDots(query.data(), m, series.data(), n, ws.dots.data());
    return;
  }

  const size_t padded = NextPowerOfTwo(n + m);
  const std::vector<std::complex<double>>* fs =
      CachedFft(series, padded, /*reversed=*/false, cache);
  if (fs == nullptr) {
    ForwardFftInto(series, padded, /*reversed=*/false, ws.fft_sig);
    fs = &ws.fft_sig;
  }
  const std::vector<std::complex<double>>* fq =
      CachedFft(query, padded, /*reversed=*/true, cache);
  if (fq == nullptr) {
    ForwardFftInto(query, padded, /*reversed=*/true, ws.fft_qry);
    fq = &ws.fft_qry;
  }

  ws.fft_prod.resize(padded);
  for (size_t i = 0; i < padded; ++i) ws.fft_prod[i] = (*fs)[i] * (*fq)[i];
  Fft(ws.fft_prod, /*inverse=*/true);
  for (size_t i = 0; i < count; ++i) {
    ws.dots[i] = ws.fft_prod[m - 1 + i].real();
  }
}

double DistanceEngine::DotMinImpl(std::span<const double> a,
                                  std::span<const double> b,
                                  ArtifactCache* cache,
                                  const MetricPolicy& policy,
                                  DistanceWorkspace& ws, size_t seed,
                                  size_t* argmin_out) {
  const bool a_shorter = a.size() <= b.size();
  const std::span<const double> query = a_shorter ? a : b;
  const std::span<const double> series = a_shorter ? b : a;
  const size_t m = query.size();
  const size_t n = series.size();
  IPS_CHECK(m >= 1);
  BumpProfiles(policy.id);

  // The early-abandon cascade only serves the naive sliding-dots regime:
  // under FFT dots the dense kernel sees different (FFT-rounded) products,
  // so pruning against exact scalar dots would break bitwise identity.
  // Metrics whose registered kernel cannot win (eab_profitable false, e.g.
  // cosine's prune-nothing Cauchy-Schwarz scan) bail to the dense path up
  // front, before paying any cascade setup.
  const bool eab = early_abandon_ && policy.min_early_abandon != nullptr &&
                   policy.eab_profitable &&
                   (m < kFftCutoff || !ShouldUseFftSlidingProducts(m, n));

  double qq;
  const double* qpre = nullptr;
  if (const std::vector<double>* p = CachedPrefix(query, cache)) {
    qq = p->back();
    qpre = p->data();
  } else if (eab && policy.id == MetricId::kCosine) {
    // Cosine's Cauchy-Schwarz tail bound consumes the full query prefix;
    // PrefixSquaresInto's back() is bitwise equal to the serial qq loop.
    PrefixSquaresInto(query, ws.query_prefix);
    qpre = ws.query_prefix.data();
    qq = ws.query_prefix.back();
  } else {
    qq = 0.0;
    for (double v : query) qq += v * v;
  }

  const std::vector<double>* sq = CachedPrefix(series, cache);
  if (sq == nullptr) {
    PrefixSquaresInto(series, ws.prefix);
    sq = &ws.prefix;
  }

  if (eab) {
    simd::EabArgs ea;
    ea.query = query.data();
    ea.window = m;
    ea.series = series.data();
    ea.count = n - m + 1;
    ea.qq = qq;
    ea.sqp = sq->data();
    ea.qpre = qpre;
    ea.seed = seed;
    simd::EabCounters ec;
    const simd::EabResult res = policy.min_early_abandon(ea, ec);
    BumpEab(policy.id, ec);
    if (!res.bailed_out) {
      if (argmin_out != nullptr) *argmin_out = res.argmin;
      return res.min;
    }
    // Bailed out: pruning was losing to the vectorised dense kernel.
    // Fall through to the dense path (identical result either way).
  }

  SlidingDotsInto(query, series, cache, ws);

  MetricProfileArgs args;
  args.dots = ws.dots.data();
  args.count = n - m + 1;
  args.window = m;
  args.qq = qq;
  args.sqp = sq->data();
  return policy.kernels.min_from_dots(args);
}

double DistanceEngine::ZNormMinImpl(std::span<const double> a,
                                    std::span<const double> b,
                                    ArtifactCache* cache,
                                    DistanceWorkspace& ws, size_t seed,
                                    size_t* argmin_out) {
  const bool a_shorter = a.size() <= b.size();
  const std::span<const double> query = a_shorter ? a : b;
  const std::span<const double> series = a_shorter ? b : a;
  const size_t m = query.size();
  const size_t n = series.size();
  IPS_CHECK(m >= 1);
  const MetricPolicy& policy = GetMetric(MetricId::kZNormEuclidean);
  BumpProfiles(policy.id);

  const bool eab = early_abandon_ && policy.min_early_abandon != nullptr &&
                   policy.eab_profitable &&
                   (m < kFftCutoff || !ShouldUseFftSlidingProducts(m, n));

  const RollingStats* stats = CachedStats(series, m, cache);
  RollingStats local_stats;
  if (stats == nullptr) {
    local_stats = ComputeRollingStats(series, m);
    stats = &local_stats;
  }

  // Z-normalised query: from the cache when there is one, otherwise into
  // scratch (same operations as ZNormalize, so bitwise identical). The
  // value/square sums only feed the early-abandon bound arithmetic, never
  // a returned distance.
  std::span<const double> q;
  bool query_flat;
  double zq_sum = 0.0;
  double zq_sumsq = 0.0;
  if (const ZnQuery* zq = CachedZnQuery(query, cache)) {
    q = zq->values;
    query_flat = zq->flat;
    zq_sum = zq->sum;
    zq_sumsq = zq->sum_sq;
  } else {
    ws.znorm_query.assign(query.begin(), query.end());
    ZNormalizeInPlace(ws.znorm_query);
    q = ws.znorm_query;
    query_flat = std::all_of(q.begin(), q.end(),
                             [](double v) { return v == 0.0; });
    if (eab) {
      for (double v : q) {
        zq_sum += v;
        zq_sumsq += v * v;
      }
    }
  }

  if (eab) {
    const std::vector<double>* sq = CachedPrefix(series, cache);
    if (sq == nullptr) {
      PrefixSquaresInto(series, ws.prefix);
      sq = &ws.prefix;
    }
    simd::EabArgs ea;
    ea.query = q.data();
    ea.window = m;
    ea.series = series.data();
    ea.count = n - m + 1;
    ea.sqp = sq->data();
    ea.means = stats->means.data();
    ea.stds = stats->stds.data();
    ea.query_flat = query_flat;
    ea.zq_sum = zq_sum;
    ea.zq_sumsq = zq_sumsq;
    ea.seed = seed;
    simd::EabCounters ec;
    const simd::EabResult res = policy.min_early_abandon(ea, ec);
    BumpEab(policy.id, ec);
    if (!res.bailed_out) {
      if (argmin_out != nullptr) *argmin_out = res.argmin;
      return res.min;
    }
  }

  // With a cache, q is the cached ZnQuery entry's values (a stable
  // address), so the FFT of the z-normalised query is cacheable too.
  SlidingDotsInto(q, series, cache, ws);

  return simd::ZNormMinFromDots(ws.dots.data(), stats->stds.data(), n - m + 1,
                                m, query_flat);
}

double DistanceEngine::MinImpl(std::span<const double> a,
                               std::span<const double> b, ArtifactCache* cache,
                               MetricId metric, DistanceWorkspace& ws,
                               size_t seed, size_t* argmin_out) {
  if (metric == MetricId::kZNormEuclidean) {
    return ZNormMinImpl(a, b, cache, ws, seed, argmin_out);
  }
  return DotMinImpl(a, b, cache, GetMetric(metric), ws, seed, argmin_out);
}

// ------------------------------------------------------------- parallelism

template <typename Fn>
void DistanceEngine::ParallelItems(size_t count, Fn&& fn) {
  if (count == 0) return;
  Metrics().batch_items.Observe(count);
  const size_t workers = std::min(num_threads_, std::max<size_t>(count, 1));
  if (workers <= 1) {
    DistanceWorkspace ws;
    for (size_t i = 0; i < count; ++i) fn(i, ws);
    return;
  }
  std::vector<DistanceWorkspace> pool(workers);
  ParallelForWorkers(count, workers,
                     [&](size_t i, size_t w) { fn(i, pool[w]); });
}

// -------------------------------------------------------------- public API

double DistanceEngine::SubsequenceMinMetric(std::span<const double> a,
                                            std::span<const double> b,
                                            MetricId metric) {
  return MinImpl(a, b, /*cache=*/nullptr, metric, LocalWorkspace());
}

std::vector<double> DistanceEngine::MinForPairs(
    const std::vector<std::span<const double>>& views,
    const std::vector<IndexPair>& pairs, MetricId metric) {
  IPS_SPAN("dist_pair_batch");
  // Call-local artefacts: within the call every view is immutable, so its
  // address identifies its contents; after the call the store is gone, so
  // storage the caller reuses can never be served stale.
  ArtifactCache call_cache;
  std::vector<double> out(pairs.size());
  ParallelItems(pairs.size(), [&](size_t t, DistanceWorkspace& ws) {
    const auto [qi, si] = pairs[t];
    out[t] = MinImpl(views[qi], views[si], &call_cache, metric, ws);
  });
  return out;
}

std::vector<double> DistanceEngine::PairwiseSubsequenceMin(
    const std::vector<Subsequence>& candidates, bool symmetric) {
  std::vector<std::span<const double>> views;
  views.reserve(candidates.size());
  for (const Subsequence& c : candidates) views.push_back(c.view());
  return PairwiseSubsequenceMin(views, symmetric);
}

std::vector<double> DistanceEngine::PairwiseSubsequenceMin(
    const std::vector<std::span<const double>>& views, bool symmetric) {
  const size_t n = views.size();
  // dist(x, x) is exactly 0 (offset 0 of the profile evaluates to
  // (qq - 2qq + qq)/m == 0 and every entry is clamped non-negative), so the
  // diagonal is filled without dispatching kernels.
  std::vector<double> matrix(n * n, 0.0);
  std::vector<IndexPair> pairs;
  pairs.reserve(symmetric ? n * (n - 1) / 2 : n * (n - 1));
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = symmetric ? i + 1 : 0; j < n; ++j) {
      if (i == j) continue;
      pairs.push_back({i, j});
    }
  }
  const std::vector<double> dists = MinForPairs(views, pairs);
  for (size_t t = 0; t < pairs.size(); ++t) {
    const auto [i, j] = pairs[t];
    matrix[static_cast<size_t>(i) * n + j] = dists[t];
    if (symmetric) matrix[static_cast<size_t>(j) * n + i] = dists[t];
  }
  return matrix;
}

std::vector<std::vector<double>> DistanceEngine::TransformBatch(
    const DatasetView& data, const std::vector<Subsequence>& shapelets,
    MetricId metric) {
  IPS_CHECK(!shapelets.empty());
  IPS_SPAN("dist_transform_batch");
  // Call-local artefacts, as in MinForPairs.
  ArtifactCache call_cache;
  std::vector<std::vector<double>> rows(data.size());
  // Chunk-granular streaming: one chunk of an out-of-core view is resident
  // at a time (the in-RAM default is a single chunk, i.e. the historic
  // whole-batch loop). Per-series work is independent, so chunking only
  // reorders visits and rows stay bitwise identical.
  data.ForEachChunk([&](size_t first, std::span<const SeriesView> chunk) {
    ParallelItems(chunk.size(), [&](size_t k, DistanceWorkspace& ws) {
      std::vector<double>& row = rows[first + k];
      row.resize(shapelets.size());
      // Seed each shapelet's best-so-far search from its winning alignment
      // in the previous series this worker transformed: similar series tend
      // to match a shapelet in similar places, so the early-abandon path
      // starts near the true minimum. Purely a visit-order hint --
      // out-of-range hints are ignored by the kernels and results are
      // bitwise identical whatever the seeds are.
      if (ws.eab_seed_hints.size() != shapelets.size()) {
        ws.eab_seed_hints.assign(shapelets.size(), simd::kEabNoSeed);
      }
      const std::span<const double> series = chunk[k].view();
      for (size_t s = 0; s < shapelets.size(); ++s) {
        // Argument order matches TransformSeries: (series, shapelet).
        row[s] = MinImpl(series, shapelets[s].view(), &call_cache, metric,
                         ws, ws.eab_seed_hints[s], &ws.eab_seed_hints[s]);
      }
    });
  });
  return rows;
}

std::vector<double> DistanceEngine::TransformOne(
    std::span<const double> series, const std::vector<Subsequence>& shapelets,
    MetricId metric) {
  IPS_CHECK(!shapelets.empty());
  ArtifactCache call_cache;
  DistanceWorkspace& ws = LocalWorkspace();
  std::vector<double> row(shapelets.size());
  for (size_t s = 0; s < shapelets.size(); ++s) {
    row[s] = MinImpl(series, shapelets[s].view(), &call_cache, metric, ws);
  }
  return row;
}

}  // namespace ips
