#pragma once

// Run-diff regression gate: compare two report documents (mebl.run_report
// or mebl.bench_report) metric by metric under configurable tolerances.
// This is the engine behind `mebl_report diff baseline.json candidate.json`,
// which CI uses to fail a build when routing quality or latency regresses.
//
// Each gated metric has a direction (lower-better for #SP/#VV/wirelength/
// seconds, higher-better for routability/yield) and a Tolerance. Defaults
// are strict for violation counts, slightly loose for wirelength/vias, and
// loose for wall-clock seconds; a threshold JSON file overrides any of them
// by metric name. Metrics without a known direction are reported but never
// gate.

#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace mebl::report {

/// Exit codes of `mebl_report` (and of DiffResult::exit_code()).
inline constexpr int kDiffOk = 0;          ///< no gated regression
inline constexpr int kDiffRegression = 1;  ///< at least one gated regression
inline constexpr int kDiffUsage = 2;       ///< bad arguments or I/O failure
inline constexpr int kDiffSchemaMismatch = 3;  ///< incomparable documents

/// Allowed slack before a change in the losing direction counts as a
/// regression: candidate may be worse than baseline by up to
/// max(abs, rel * |baseline|).
struct Tolerance {
  double abs = 0.0;
  double rel = 0.0;
  bool ignore = false;  ///< metric never gates (still reported)
};

/// kExact metrics are deterministic counts that must not move either way
/// (a change in either direction beyond the slack is a regression).
enum class Direction { kLowerBetter, kHigherBetter, kExact };

/// Direction of a gated metric by its (unqualified) name, or nullopt for
/// informational metrics.
[[nodiscard]] std::optional<Direction> metric_direction(std::string_view name);

/// Built-in tolerance of a metric (threshold files override this).
[[nodiscard]] Tolerance default_tolerance(std::string_view name);

struct DiffOptions {
  /// Per-metric overrides, keyed by unqualified metric name (e.g.
  /// "wirelength", "seconds").
  std::map<std::string, Tolerance, std::less<>> tolerances;
};

/// Parse a threshold file: {"tolerances": {"wirelength": {"rel": 0.05},
/// "seconds": {"ignore": true}}} — the top-level wrapper is optional.
[[nodiscard]] std::optional<DiffOptions> parse_thresholds(
    std::string_view text);

/// One compared metric. `path` is the qualified location ("quality.
/// short_polygons", "rows[s9234/stitch-aware].wirelength"), `metric` the
/// unqualified name used for direction/tolerance lookup.
struct MetricDelta {
  std::string path;
  std::string metric;
  double baseline = 0.0;
  double candidate = 0.0;
  bool gated = false;       ///< has a direction and is not ignored
  bool regression = false;  ///< gated and worse beyond tolerance
};

struct DiffResult {
  bool schema_mismatch = false;
  std::vector<MetricDelta> deltas;  ///< every metric whose value changed
  /// Structural problems that gate by themselves (e.g. a bench row present
  /// in the baseline but missing from the candidate).
  std::vector<std::string> missing;

  [[nodiscard]] bool regressed() const noexcept;
  [[nodiscard]] int exit_code() const noexcept;
};

/// Compare two parsed report documents. Both must carry the same known
/// schema/version or the result is a schema mismatch.
[[nodiscard]] DiffResult diff_reports(const Json& baseline,
                                      const Json& candidate,
                                      const DiffOptions& options = {});

/// Human-readable summary of a diff (one line per changed metric, worst
/// first), written to `out`.
void print_diff(std::ostream& out, const DiffResult& result);

}  // namespace mebl::report
