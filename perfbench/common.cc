#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>

#include "util/check.h"
#include "util/parallel.h"

namespace perfbench {

namespace obs = ips::obs;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  IPS_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

size_t BenchThreads() { return std::min<size_t>(4, ips::HardwareThreads()); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t ShapeletFingerprint(const std::vector<ips::Subsequence>& shapelets) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 64; b += 8) {
      h ^= (v >> b) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const ips::Subsequence& s : shapelets) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(s.label)));
    mix(static_cast<uint64_t>(static_cast<int64_t>(s.series_index)));
    mix(s.start);
    mix(s.values.size());
    for (const double v : s.values) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof bits);
      mix(bits);
    }
  }
  return h;
}

double Accuracy(const std::vector<int>& predicted,
                const ips::DatasetView& truth) {
  IPS_CHECK(predicted.size() == truth.size() && !predicted.empty());
  size_t hits = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    hits += predicted[i] == truth.At(i).label ? 1 : 0;
  }
  return static_cast<double>(hits) / static_cast<double>(predicted.size());
}

// ------------------------------------------------------------------ Gate

void Gate::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    ++failures_by_kind_[what];
  }
}

void Gate::Count(uint64_t ok, uint64_t failed, const std::string& what) {
  attempted_ += ok + failed;
  failed_ += failed;
  if (failed > 0) failures_by_kind_[what] += failed;
}

obs::JsonValue Gate::ToJson() const {
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("attempted", attempted_);
  out.Set("failed", failed_);
  obs::JsonValue kinds = obs::JsonValue::Object();
  for (const auto& [kind, n] : failures_by_kind_) kinds.Set(kind, n);
  out.Set("failures_by_kind", std::move(kinds));
  return out;
}

// ---------------------------------------------------------------- Report

void Report::Set(const std::string& name, double value,
                 const std::string& unit, size_t samples) {
  entries_[name] = Entry{value, unit, samples};
}

void Report::SetMedian(const std::string& name,
                       const std::vector<double>& samples,
                       const std::string& unit) {
  Set(name, Median(samples), unit, samples.size());
  obs::JsonValue raw = obs::JsonValue::Array();
  for (const double v : samples) raw.Append(v);
  raw_samples_.Set(name, std::move(raw));
}

void Report::SetThroughput(const std::string& name, double items,
                           const std::vector<double>& seconds,
                           const std::string& unit) {
  Set(name, items / Median(seconds), unit, seconds.size());
  obs::JsonValue raw = obs::JsonValue::Array();
  for (const double v : seconds) raw.Append(v);
  raw_samples_.Set(name, std::move(raw));
}

bool Report::Has(const std::string& name) const {
  return entries_.count(name) != 0;
}

obs::JsonValue Report::ResultJson(
    const Gate& gate, const std::vector<std::string>& names) const {
  obs::JsonValue metrics = obs::JsonValue::Object();
  for (const std::string& name : names) {
    const Entry& e = entries_.at(name);
    obs::JsonValue m = obs::JsonValue::Object();
    m.Set("value", e.value);
    m.Set("unit", e.unit);
    metrics.Set(name, std::move(m));
  }
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("correct", gate.failed() == 0);
  out.Set("attempted", gate.attempted());
  out.Set("failed", gate.failed());
  out.Set("metrics", std::move(metrics));
  return out;
}

obs::JsonValue Report::SamplesJson() const {
  obs::JsonValue counts = obs::JsonValue::Object();
  for (const auto& [name, e] : entries_) counts.Set(name, e.samples);
  obs::JsonValue out = obs::JsonValue::Object();
  out.Set("counts", std::move(counts));
  out.Set("medians_of", raw_samples_);
  return out;
}

// ---------------------------------------------------------- SpanRecorder

int SpanRecorder::Open(const std::string& name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_s = SecondsSince(origin_);
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

double SpanRecorder::Close(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.end_s = SecondsSince(origin_);
  return s.end_s - s.start_s;
}

obs::JsonValue SpanRecorder::ToJson() const {
  obs::JsonValue out = obs::JsonValue::Array();
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    obs::JsonValue e = obs::JsonValue::Object();
    e.Set("id", i);
    e.Set("name", s.name);
    e.Set("parent", s.parent);
    e.Set("start_s", s.start_s);
    e.Set("end_s", s.end_s);
    out.Append(std::move(e));
  }
  return out;
}

uint64_t CounterDelta(const obs::MetricsSnapshot& before,
                      const obs::MetricsSnapshot& after,
                      const std::string& name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace perfbench
