// The traced run's fit: IpsClassifier::Fit followed by PredictBatch,
// rebuilt from the library's public stage calls so that each layer gets a
// bench-side span and a counter delta. The order and seeds follow
// RunDiscovery in src/ips/pipeline.cc; the caller checks that the
// resulting shapelets and labels equal those of a plain Fit.

#include <memory>
#include <utility>

#include "classify/svm.h"
#include "core/distance_engine.h"
#include "core/rng.h"
#include "dabf/dabf.h"
#include "ips/candidate_gen.h"
#include "ips/pruning.h"
#include "ips/top_k.h"
#include "ips/utility.h"
#include "transform/shapelet_transform.h"
#include "util/check.h"
#include "workloads.h"

namespace perfbench {

namespace {

ips::obs::MetricsSnapshot Snap() {
  return ips::obs::MetricsRegistry::Instance().Snapshot();
}

}  // namespace

TracedFit RunTracedFit(const ips::IpsOptions& options,
                       const ips::DatasetView& train,
                       const ips::DatasetView& test, SpanRecorder& spans) {
  IPS_CHECK_MSG(options.backend == ips::TransformBackend::kLinearSvm,
                "the traced fit rebuilds the linear-SVM back-end only");
  TracedFit out;
  auto& layer = out.layer;
  const auto delta = [](const ips::obs::MetricsSnapshot& before,
                        const ips::obs::MetricsSnapshot& after,
                        const char* name) {
    return static_cast<double>(CounterDelta(before, after, name));
  };

  const ips::obs::MetricsSnapshot run_before = Snap();
  const int fit = spans.Open("fit", -1);
  // IpsClassifier::Fit owns one engine for the train transform; discovery
  // (RunDiscovery) builds its own for pruning and exact scoring.
  ips::DistanceEngine transform_engine(options.num_threads);
  transform_engine.set_early_abandon(options.enable_early_abandon);
  ips::DistanceEngine discovery_engine(options.num_threads);
  discovery_engine.set_early_abandon(options.enable_early_abandon);

  ips::Rng rng(options.seed);
  int span = spans.Open("candidate_gen", fit);
  const ips::obs::MetricsSnapshot gen_before = Snap();
  ips::CandidatePool pool = ips::GenerateCandidates(train, options, rng);
  layer["ips.candidate_gen.s"] = spans.Close(span);
  const ips::obs::MetricsSnapshot gen_after = Snap();
  const double motifs_generated = static_cast<double>(pool.TotalMotifs());
  layer["ips.candidates"] =
      static_cast<double>(pool.TotalMotifs() + pool.TotalDiscords());
  layer["matrix_profile.joins"] = delta(gen_before, gen_after,
                                        "mp.joins_computed");
  layer["matrix_profile.joins_halved"] =
      delta(gen_before, gen_after, "mp.joins_halved");
  layer["matrix_profile.qt_sweeps"] = delta(gen_before, gen_after,
                                            "mp.qt_sweeps");
  const double mp_hits = delta(gen_before, gen_after, "mp.cache_hits");
  layer["matrix_profile.cache_hit_ratio"] =
      Ratio(mp_hits, mp_hits + delta(gen_before, gen_after, "mp.cache_misses"));

  std::unique_ptr<ips::Dabf> dabf;
  layer["dabf.build.s"] = 0.0;
  if (options.use_dabf_pruning ||
      options.utility_mode == ips::UtilityMode::kDtCr) {
    span = spans.Open("dabf_build", fit);
    ips::DabfOptions dabf_options = options.dabf;
    dabf_options.seed = options.dabf.seed + options.seed;
    dabf = std::make_unique<ips::Dabf>(pool.MergedByClass(), dabf_options);
    layer["dabf.build.s"] = spans.Close(span);
  }

  span = spans.Open("prune", fit);
  if (options.use_dabf_pruning) {
    ips::PruneWithDabf(pool, *dabf, options.shapelets_per_class);
  } else {
    ips::PruneNaive(pool, options.shapelets_per_class,
                    /*majority_fraction=*/0.5, &discovery_engine);
  }
  layer["ips.prune.s"] = spans.Close(span);
  layer["ips.prune.kept_ratio"] =
      Ratio(static_cast<double>(pool.TotalMotifs()), motifs_generated);

  span = spans.Open("score", fit);
  const auto scores = ips::ScoreAllCandidates(
      pool, train, options.utility_mode, dabf.get(), &discovery_engine);
  layer["ips.score.s"] = spans.Close(span);

  span = spans.Open("topk", fit);
  out.shapelets =
      ips::SelectTopKShapelets(pool, scores, options.shapelets_per_class);
  layer["ips.topk.s"] = spans.Close(span);

  span = spans.Open("transform_train", fit);
  ips::TransformedData transformed =
      ips::ShapeletTransform(train, out.shapelets, options.metric,
                             options.num_threads, &transform_engine);
  layer["transform.train.s"] = spans.Close(span);

  span = spans.Open("classify_fit", fit);
  ips::LabeledMatrix matrix;
  matrix.x = std::move(transformed.features);
  matrix.y = std::move(transformed.labels);
  ips::LinearSvm svm(options.svm);
  svm.Fit(matrix);
  layer["classify.fit.s"] = spans.Close(span);
  const double fit_wall_s = spans.Close(fit);
  const ips::obs::MetricsSnapshot fit_after = Snap();

  // PredictBatch: a call-local engine, one batched transform, then the
  // back-end row by row.
  const int predict = spans.Open("predict", -1);
  ips::DistanceEngine predict_engine(options.num_threads);
  predict_engine.set_early_abandon(options.enable_early_abandon);
  span = spans.Open("transform_test", predict);
  const ips::TransformedData test_rows =
      ips::ShapeletTransform(test, out.shapelets, options.metric,
                             options.num_threads, &predict_engine);
  const double transform_test_s = spans.Close(span);
  layer["transform.test.s"] = transform_test_s;
  layer["transform.cells_per_s"] =
      Ratio(static_cast<double>(test.size() * out.shapelets.size()),
            transform_test_s);
  span = spans.Open("classify_predict", predict);
  out.labels.resize(test_rows.features.size());
  for (size_t i = 0; i < out.labels.size(); ++i) {
    out.labels[i] = svm.Predict(test_rows.features[i]);
  }
  layer["classify.predict.s"] = spans.Close(span);
  const double predict_wall_s = spans.Close(predict);
  const ips::obs::MetricsSnapshot run_after = Snap();

  layer["trace.fit_wall_s"] = fit_wall_s;
  layer["trace.fit_coverage"] =
      Ratio(layer["ips.candidate_gen.s"] + layer["dabf.build.s"] +
                layer["ips.prune.s"] + layer["ips.score.s"] +
                layer["ips.topk.s"] + layer["transform.train.s"] +
                layer["classify.fit.s"],
            fit_wall_s);
  layer["trace.predict_coverage"] =
      Ratio(transform_test_s + layer["classify.predict.s"], predict_wall_s);

  // Engine counters cover fit and predict; pool and arena counters the fit.
  layer["core.engine.profiles"] =
      delta(run_before, run_after, "engine.profiles_computed");
  const double stats_hits =
      delta(run_before, run_after, "engine.stats_cache_hits");
  layer["core.engine.stats_hit_ratio"] = Ratio(
      stats_hits,
      stats_hits + delta(run_before, run_after, "engine.stats_cache_misses"));
  const double eab_candidates =
      delta(run_before, run_after, "engine.eab.candidates");
  const double eab_lb = delta(run_before, run_after, "engine.eab.lb_pruned");
  layer["core.eab.skip_ratio"] = Ratio(
      eab_lb + delta(run_before, run_after, "engine.eab.abandoned"),
      eab_candidates);
  layer["core.eab.lb_pruned_ratio"] = Ratio(eab_lb, eab_candidates);
  layer["util.pool.regions"] =
      delta(run_before, fit_after, "pool.regions_dispatched");
  layer["util.pool.inline_regions"] =
      delta(run_before, fit_after, "pool.regions_inline");
  layer["util.pool.steals"] = delta(run_before, fit_after, "pool.chunk_steals");
  layer["util.arena.slab_allocs"] =
      delta(run_before, fit_after, "engine.arena.slab_allocs");
  return out;
}

}  // namespace perfbench
