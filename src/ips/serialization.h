// Plain-text persistence for discovered shapelets and whole runs.
//
// Shapelet format (line-oriented, locale-independent, unchanged since v1):
//   ips-shapelets v1
//   <count>
//   <label> <series_index> <start> <length> v_0 v_1 ... v_{length-1}
//   ...
// Doubles are written with max_digits10 so a round trip is bit-exact.
// A saved shapelet set plus the training set is sufficient to rebuild a
// classifier (refit the transform + SVM), so no classifier state is stored.
//
// Run format (one artifact: shapelets + metric + stats + trace):
//   ips-run v<major>.<minor>
//   metric <name>          (v2.1+: the run's MetricId by registered name)
//   stats <one-line JSON object, the IpsRunStats fields by name>
//   trace <one-line JSON object, obs/export.h's trace schema>
//   <the ips-shapelets v1 block verbatim>
// The version header is explicit (FormatVersion): loaders reject a major
// they do not speak and accept any minor within a known major, so fields
// can be added minor-compatibly. The metric line was added in v2.1; a v2.0
// artifact (no metric line) loads with the z-normalised Euclidean default,
// and an artifact naming a metric this build does not register is REJECTED
// -- its shapelet distances are meaningless under a different metric.
// JSON blocks use obs/json.h, the same schema the BENCH_*.json exporters
// emit.

#ifndef IPS_IPS_SERIALIZATION_H_
#define IPS_IPS_SERIALIZATION_H_

#include <optional>
#include <string>
#include <vector>

#include "core/time_series.h"
#include "ips/run_result.h"
#include "obs/json.h"

namespace ips {

/// Version stamp of the run artifact format.
struct FormatVersion {
  int major = 0;
  int minor = 0;

  friend bool operator==(const FormatVersion&, const FormatVersion&) = default;
};

/// The run format this library writes. Readers accept major == 2 with any
/// minor (additive fields only within a major). Minor 1 added the metric
/// line.
inline constexpr FormatVersion kRunFormatVersion{2, 1};

/// Serialises `shapelets` to a string in the v1 format.
std::string SerializeShapelets(const std::vector<Subsequence>& shapelets);

/// Parses the v1 format; nullopt on any syntax error.
std::optional<std::vector<Subsequence>> DeserializeShapelets(
    const std::string& text);

/// Writes the serialisation to `path`. Returns false on I/O failure.
bool SaveShapelets(const std::vector<Subsequence>& shapelets,
                   const std::string& path);

/// Reads shapelets from `path`; nullopt on I/O or syntax failure.
std::optional<std::vector<Subsequence>> LoadShapelets(
    const std::string& path);

/// IpsRunStats as a flat JSON object (field name -> value). Shared by the
/// run artifact below and exp_* benchmark emitters.
obs::JsonValue RunStatsToJson(const IpsRunStats& stats);

/// Inverse of RunStatsToJson; nullopt when a field is missing or of the
/// wrong type. Keys it does not know are ignored, so artifacts carrying
/// retired fields (e.g. "mp_cache_hits") still load.
std::optional<IpsRunStats> RunStatsFromJson(const obs::JsonValue& json);

/// Serialises a whole run (shapelets + metric + stats + trace) in the run
/// format.
std::string SerializeRunResult(const RunResult& result);

/// Parses the run format; nullopt on syntax error, a major version this
/// reader does not speak, or a metric name this build does not register.
/// When `error` is non-null it receives a human-readable reason on
/// failure (and is cleared on success).
std::optional<RunResult> DeserializeRunResult(const std::string& text,
                                              std::string* error = nullptr);

/// Writes one run artifact to `path`. Returns false on I/O failure.
bool SaveRunResult(const RunResult& result, const std::string& path);

/// Reads a run artifact from `path`; nullopt on I/O or syntax failure,
/// with the reason in `*error` when provided.
std::optional<RunResult> LoadRunResult(const std::string& path,
                                       std::string* error = nullptr);

/// Reads a run artifact from an already-open file descriptor (read to EOF;
/// the fd is NOT closed). This is the serving layer's reload path: the
/// registry opens the artifact itself (so it can apply O_NOFOLLOW-style
/// policy) and hands the fd here, and socket-fed artifacts load without
/// touching the filesystem. nullopt on read or parse failure, with the
/// reason in `*error` when provided.
std::optional<RunResult> LoadRunResultFromFd(int fd,
                                             std::string* error = nullptr);

}  // namespace ips

#endif  // IPS_IPS_SERIALIZATION_H_
