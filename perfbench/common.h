// Shared pieces of the end-to-end benchmark (perfbench/README.md): command
// line, timing and order statistics, the correctness gate, the metric
// report, and the bench-side span recorder used by the traced runs.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/time_series.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Provenance passed in by run.py (the binary cannot see the checkout).
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  /// Scratch directory for segments, artifacts and the report file.
  std::string work_dir = ".";
};

double SecondsSince(Clock::time_point start);

/// Median and linearly interpolated quantile of a sample (copied, sorted).
double Median(std::vector<double> values);
double Quantile(std::vector<double> values, double q);

/// T: the thread count every parallel measurement uses, min(4, HardwareThreads()).
size_t BenchThreads();

/// Peak resident set of this process, in MiB (getrusage ru_maxrss).
double PeakRssMb();

/// FNV-1a over the exact bits of every shapelet (values, label, source
/// index, offset): equal iff the two shapelet sets are bitwise equal.
uint64_t ShapeletFingerprint(const std::vector<ips::Subsequence>& shapelets);

/// Fraction of `predicted` equal to the labels of `truth`.
double Accuracy(const std::vector<int>& predicted,
                const ips::DatasetView& truth);

/// Counts operations and failures; a failure never aborts the run. Not
/// thread-safe: record from one thread.
class Gate {
 public:
  /// Records one operation; `ok == false` counts it as failed under
  /// `what`, and the report lists failures by kind.
  void Check(bool ok, const std::string& what);
  /// Records `ok` passed and `failed` failed operations of one kind.
  void Count(uint64_t ok, uint64_t failed, const std::string& what);
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  ips::obs::JsonValue ToJson() const;

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, uint64_t> failures_by_kind_;
};

/// The metrics a run prints, with units and the sample count behind each.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples);
  /// Median of `samples` (which must be non-empty); the samples themselves
  /// go to the report file.
  void SetMedian(const std::string& name, const std::vector<double>& samples,
                 const std::string& unit);
  /// Throughput over calls that each handled `items`: items over the
  /// median of `seconds` (which must be non-empty).
  void SetThroughput(const std::string& name, double items,
                     const std::vector<double>& seconds,
                     const std::string& unit);
  bool Has(const std::string& name) const;
  /// Extra per-workload detail written to the report file only.
  ips::obs::JsonValue& details() { return details_; }

  /// The result object of the benchmark contract: correct / attempted /
  /// failed / metrics, restricted to `names` in that order. Every name
  /// must have been Set.
  ips::obs::JsonValue ResultJson(const Gate& gate,
                                 const std::vector<std::string>& names) const;
  /// Name -> sample count, and the samples behind each median.
  ips::obs::JsonValue SamplesJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    size_t samples = 0;
  };
  std::map<std::string, Entry> entries_;
  ips::obs::JsonValue raw_samples_ = ips::obs::JsonValue::Object();
  ips::obs::JsonValue details_ = ips::obs::JsonValue::Object();
};

/// Bench-side spans: name, parent, start and end, kept in memory and
/// written to the report file when the run ends.
class SpanRecorder {
 public:
  /// Opens a span under `parent` (-1 for a root); returns its id.
  int Open(const std::string& name, int parent);
  /// Closes span `id`; returns its duration in seconds.
  double Close(int id);
  ips::obs::JsonValue ToJson() const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Delta of one registry counter between two snapshots.
uint64_t CounterDelta(const ips::obs::MetricsSnapshot& before,
                      const ips::obs::MetricsSnapshot& after,
                      const std::string& name);

/// a / b, or 0 when b is 0.
double Ratio(double a, double b);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
