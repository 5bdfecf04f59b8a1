// ips_perfbench: the end-to-end benchmark of fit, predict, serve and
// store-backed runs (perfbench/README.md). Normally launched through
// perfbench/run.py, which builds it first:
//
//   ips_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--work_dir DIR] [--git_sha SHA] [--source_digest HEX]
//
// With --trace 0 the last stdout line is the result object with every
// end-to-end metric; with --trace 1 it carries every per-layer metric. The
// full report (provenance, sample counts, phase details, spans) is written
// to DIR/report-<workload>-<seed>-trace<t>.json.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "obs/export.h"
#include "util/parallel.h"
#include "workloads.h"

namespace perfbench {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"fit_s", "s"},
      {"fit_serial_s", "s"},
      {"predict_series_per_s", "series/s"},
      {"accuracy", "fraction"},
      {"ok_frac", "fraction"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = {
      {"ips.candidate_gen.s", "s"},
      {"ips.candidates", "count"},
      {"matrix_profile.joins", "count"},
      {"matrix_profile.joins_halved", "count"},
      {"matrix_profile.qt_sweeps", "count"},
      {"matrix_profile.cache_hit_ratio", "ratio"},
      {"dabf.build.s", "s"},
      {"ips.prune.s", "s"},
      {"ips.prune.kept_ratio", "ratio"},
      {"ips.score.s", "s"},
      {"ips.topk.s", "s"},
      {"core.engine.profiles", "count"},
      {"core.engine.stats_hit_ratio", "ratio"},
      {"core.eab.skip_ratio", "ratio"},
      {"core.eab.lb_pruned_ratio", "ratio"},
      {"transform.train.s", "s"},
      {"transform.test.s", "s"},
      {"transform.cells_per_s", "1/s"},
      {"classify.fit.s", "s"},
      {"classify.predict.s", "s"},
      {"util.pool.regions", "count"},
      {"util.pool.inline_regions", "count"},
      {"util.pool.steals", "count"},
      {"util.arena.slab_allocs", "count"},
      {"serve.light_p50_ms", "ms"},
      {"serve.light_p99_ms", "ms"},
      {"serve.heavy_p50_ms", "ms"},
      {"serve.heavy_p99_ms", "ms"},
      {"serve.max_qps", "req/s"},
      {"serve.reload_s", "s"},
      {"serve.model_classify_us", "us"},
      {"serve.queue_p50_us", "us"},
      {"serve.queue_p99_us", "us"},
      {"serve.batch_size_mean", "count"},
      {"serve.batches", "count"},
      {"serve.generator_lag_ms", "ms"},
      {"serve.errors", "count"},
      {"store.write.s", "s"},
      {"store.write.mb_per_s", "MB/s"},
      {"store.open.s", "s"},
      {"store.chunk_loads", "count"},
      {"store.chunk_evictions", "count"},
      {"store.hit_ratio", "ratio"},
      {"store.bytes_loaded_mb", "MB"},
      {"store.resident_peak_mb", "MB"},
      {"store.sidecar_served", "count"},
      {"trace.fit_wall_s", "s"},
      {"trace.fit_coverage", "ratio"},
      {"trace.predict_coverage", "ratio"},
      {"trace.overhead_s", "s"},
  };
  return defs;
}

namespace {

namespace obs = ips::obs;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work_dir") {
      args->work_dir = value;
    } else if (key == "--git_sha") {
      args->git_sha = value;
    } else if (key == "--source_digest") {
      args->source_digest = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// The library's compile-time switches, as this binary was built.
#ifdef IPS_DISABLE_SIMD
constexpr bool kDisableSimd = true;
#else
constexpr bool kDisableSimd = false;
#endif
#ifdef IPS_DISABLE_TRACING
constexpr bool kDisableTracing = true;
#else
constexpr bool kDisableTracing = false;
#endif
#ifdef IPS_DISABLE_EARLY_ABANDON
constexpr bool kDisableEarlyAbandon = true;
#else
constexpr bool kDisableEarlyAbandon = false;
#endif
#ifdef IPS_DISABLE_TILING
constexpr bool kDisableTiling = true;
#else
constexpr bool kDisableTiling = false;
#endif

obs::JsonValue Provenance(const RunContext& ctx) {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("git_sha", ctx.args.git_sha);
  out.Set("source_digest", ctx.args.source_digest);
#if defined(__clang__)
  out.Set("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  out.Set("compiler", "gcc " __VERSION__);
#else
  out.Set("compiler", "unknown");
#endif
  out.Set("build_type", PERFBENCH_BUILD_TYPE);
  out.Set("cxx_flags", PERFBENCH_CXX_FLAGS);
  obs::JsonValue switches = obs::JsonValue::Object();
  switches.Set("IPS_DISABLE_SIMD", kDisableSimd);
  switches.Set("IPS_DISABLE_TRACING", kDisableTracing);
  switches.Set("IPS_DISABLE_EARLY_ABANDON", kDisableEarlyAbandon);
  switches.Set("IPS_DISABLE_TILING", kDisableTiling);
  out.Set("build_switches", std::move(switches));
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  // What `nproc` prints: the CPUs this process may run on.
  out.Set("nproc", sched_getaffinity(0, sizeof cpus, &cpus) == 0
                       ? CPU_COUNT(&cpus)
                       : 0);
  out.Set("hardware_threads", ips::HardwareThreads());
  out.Set("bench_threads", BenchThreads());
  out.Set("workload", ctx.args.workload);
  out.Set("seed", ctx.args.seed);
  out.Set("seconds", ctx.args.seconds);
  out.Set("trace", ctx.args.trace);
  return out;
}

std::vector<std::string> Names(const std::vector<MetricDef>& defs) {
  std::vector<std::string> names;
  for (const MetricDef& def : defs) names.push_back(def.name);
  return names;
}

int Main(int argc, char** argv) {
  RunContext ctx;
  if (!ParseArgs(argc, argv, &ctx.args)) {
    std::fprintf(stderr,
                 "usage: ips_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work_dir DIR] [--git_sha SHA] "
                 "[--source_digest HEX]\n");
    return 2;
  }
  const bool fit = IsFitWorkload(ctx.args.workload);
  if (!fit && ctx.args.workload != "serve_mixed") {
    std::fprintf(stderr, "unknown workload %s\n", ctx.args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(ctx.args.work_dir);

  // Layers a workload does not exercise report zero in the traced run.
  const std::vector<MetricDef>& printed =
      ctx.args.trace ? PerLayerMetrics() : EndToEndMetrics();
  if (ctx.args.trace) {
    for (const MetricDef& def : printed) {
      ctx.report.Set(def.name, 0.0, def.unit, 0);
    }
  }

  if (fit) {
    RunFitWorkload(ctx);
  } else {
    RunServeWorkload(ctx);
  }
  if (!ctx.args.trace) {
    ctx.report.Set("ok_frac",
                   1.0 - Ratio(static_cast<double>(ctx.gate.failed()),
                               static_cast<double>(ctx.gate.attempted())),
                   "fraction", ctx.gate.attempted());
  }
  for (const MetricDef& def : printed) {
    if (!ctx.report.Has(def.name)) {
      std::fprintf(stderr, "workload did not measure %s\n", def.name.c_str());
      return 1;
    }
  }

  obs::JsonValue report = obs::JsonValue::Object();
  report.Set("provenance", Provenance(ctx));
  report.Set("samples", ctx.report.SamplesJson());
  report.Set("gate", ctx.gate.ToJson());
  report.Set("details", ctx.report.details());
  report.Set("spans", ctx.spans.ToJson());
  const obs::JsonValue result = ctx.report.ResultJson(ctx.gate, Names(printed));
  report.Set("result", result);
  const std::string report_path =
      ctx.args.work_dir + "/report-" + ctx.args.workload + "-" +
      std::to_string(ctx.args.seed) + "-trace" +
      (ctx.args.trace ? "1" : "0") + ".json";
  if (!obs::WriteJsonFile(report, report_path)) {
    std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    return 1;
  }
  std::printf("provenance %s\n", report.Get("provenance").Dump().c_str());
  std::printf("gate %s\n", ctx.gate.ToJson().Dump().c_str());
  std::printf("report %s\n", report_path.c_str());
  std::printf("%s\n", result.Dump().c_str());
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
