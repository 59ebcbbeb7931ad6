#include "report/diff.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "report/report.hpp"

namespace mebl::report {

namespace {

struct MetricSpec {
  std::string_view name;
  Direction direction;
  Tolerance tolerance;
};

// The gate table: every metric `mebl_report diff` enforces, with its
// improvement direction and default slack. Violation counts are strict —
// one extra short polygon is a regression. Wirelength/vias wander a little
// under legitimate changes, wall-clock a lot.
constexpr double kSizeRel = 0.02;
constexpr double kTimeRel = 0.50;
constexpr double kTimeAbs = 2.0;

const MetricSpec kSpecs[] = {
    {"short_polygons", Direction::kLowerBetter, {}},
    {"via_violations", Direction::kLowerBetter, {}},
    {"vertical_violations", Direction::kLowerBetter, {}},
    {"total_vertex_overflow", Direction::kLowerBetter, {}},
    {"max_vertex_overflow", Direction::kLowerBetter, {}},
    {"total_edge_overflow", Direction::kLowerBetter, {}},
    {"expected_defects", Direction::kLowerBetter, {0.0, kSizeRel}},
    {"wirelength", Direction::kLowerBetter, {0.0, kSizeRel}},
    {"vias", Direction::kLowerBetter, {0.0, kSizeRel}},
    {"seconds", Direction::kLowerBetter, {kTimeAbs, kTimeRel}},
    {"total_seconds", Direction::kLowerBetter, {kTimeAbs, kTimeRel}},
    // Congestion-graph footprint (DESIGN.md §15): resident bytes of the
    // global graph's rows. Deterministic (thread-invariant), so it gates at
    // the usual size slack; peak_rss_kb stays ungated (machine-dependent).
    {"storage_bytes", Direction::kLowerBetter, {0.0, kSizeRel}},
    {"routability_pct", Direction::kHigherBetter, {}},
    {"routed_nets", Direction::kHigherBetter, {}},
    {"yield", Direction::kHigherBetter, {}},
    // Serve-throughput gates (DESIGN.md §16): the deterministic side of the
    // bench — every job answered, every expected ECO absorbed into a batch,
    // per-design reports byte-identical across lane counts, verify replays
    // clean. Strict: one dropped job or one mismatched byte is a
    // regression. Wall-clock QPS / latency stay ungated (machine-
    // dependent, informational rows only).
    {"jobs_completed", Direction::kHigherBetter, {}},
    {"eco_coalesced", Direction::kHigherBetter, {}},
    {"reports_identical", Direction::kHigherBetter, {}},
    {"eco_verified", Direction::kHigherBetter, {}},
    // Steady-state ECO stream (bench/eco_reroute, DESIGN.md §9): the repair
    // memo's skip count and the stream's final quality are pure functions
    // of the stream, so any change either way means the routing changed.
    // The full_scale eco and detail rows gate their final quality the same.
    {"memo_skips", Direction::kExact, {}},
    // The ECO rows' batch size and global dirty closure: a change means the
    // ECO rerouted a different set of subnets.
    {"batch_nets", Direction::kExact, {}},
    {"dirty_subnets", Direction::kExact, {}},
    {"final_short_polygons", Direction::kExact, {}},
    {"final_via_violations", Direction::kExact, {}},
    {"final_vias", Direction::kExact, {}},
    {"final_wirelength", Direction::kExact, {}},
    // The detail row (bench/full_scale, DESIGN.md §9): how much A* work the
    // route took and how the schedule went are pure functions of the
    // circuit, so a change either way means the detailed router changed.
    {"astar_searches", Direction::kExact, {}},
    {"astar_expansions", Direction::kExact, {}},
    {"sealed_fails", Direction::kExact, {}},
    {"escalations", Direction::kExact, {}},
    {"failed_subnets", Direction::kExact, {}},
};

const MetricSpec* find_spec(std::string_view name) {
  for (const MetricSpec& spec : kSpecs)
    if (spec.name == name) return &spec;
  return nullptr;
}

double tolerance_slack(const Tolerance& tolerance, double baseline) {
  return std::max(tolerance.abs, tolerance.rel * std::abs(baseline));
}

/// Numeric leaves of `json`, flattened to dotted paths under `prefix`.
void flatten_numbers(const Json& json, const std::string& prefix,
                     std::map<std::string, double>& out) {
  switch (json.kind()) {
    case Json::Kind::kInt:
    case Json::Kind::kDouble: out[prefix] = json.as_double(); break;
    case Json::Kind::kObject:
      for (const auto& [key, member] : json.members())
        flatten_numbers(member, prefix.empty() ? key : prefix + "." + key,
                        out);
      break;
    default: break;  // strings/bools/arrays are not metrics
  }
}

std::string_view unqualified(std::string_view path) {
  const std::size_t dot = path.rfind('.');
  return dot == std::string_view::npos ? path : path.substr(dot + 1);
}

class Differ {
 public:
  explicit Differ(const DiffOptions& options) : options_(options) {}

  void compare_maps(const std::map<std::string, double>& baseline,
                    const std::map<std::string, double>& candidate,
                    const std::string& context) {
    for (const auto& [path, base_value] : baseline) {
      const auto it = candidate.find(path);
      if (it == candidate.end()) continue;  // absent metric: not comparable
      if (it->second == base_value) continue;
      push_delta(context, path, base_value, it->second);
    }
    // Metrics new in the candidate are informational; record them so a
    // report consumer sees them, but they cannot regress with no baseline.
    for (const auto& [path, cand_value] : candidate)
      if (!baseline.contains(path))
        result_.deltas.push_back(
            {qualify(context, path), std::string(unqualified(path)), 0.0,
             cand_value, false, false});
  }

  void missing(std::string text) {
    result_.missing.push_back(std::move(text));
  }

  DiffResult take() {
    // Worst first: regressions, then other gated changes, then info.
    std::stable_sort(result_.deltas.begin(), result_.deltas.end(),
                     [](const MetricDelta& a, const MetricDelta& b) {
                       if (a.regression != b.regression) return a.regression;
                       return a.gated && !b.gated;
                     });
    return std::move(result_);
  }

 private:
  static std::string qualify(const std::string& context,
                             const std::string& path) {
    return context.empty() ? path : context + "." + path;
  }

  void push_delta(const std::string& context, const std::string& path,
                  double baseline, double candidate) {
    MetricDelta delta;
    delta.path = qualify(context, path);
    delta.metric = std::string(unqualified(path));
    delta.baseline = baseline;
    delta.candidate = candidate;

    const MetricSpec* spec = find_spec(delta.metric);
    Tolerance tolerance = spec != nullptr ? spec->tolerance : Tolerance{};
    if (const auto it = options_.tolerances.find(delta.metric);
        it != options_.tolerances.end())
      tolerance = it->second;

    delta.gated = spec != nullptr && !tolerance.ignore;
    if (delta.gated) {
      const double slack = tolerance_slack(tolerance, baseline);
      switch (spec->direction) {
        case Direction::kLowerBetter:
          delta.regression = candidate > baseline + slack;
          break;
        case Direction::kHigherBetter:
          delta.regression = candidate < baseline - slack;
          break;
        case Direction::kExact:
          delta.regression = std::abs(candidate - baseline) > slack;
          break;
      }
    }
    result_.deltas.push_back(std::move(delta));
  }

  const DiffOptions& options_;
  DiffResult result_;
};

std::string doc_schema(const Json& json) {
  const Json* schema = json.get("schema");
  return schema != nullptr && schema->kind() == Json::Kind::kString
             ? schema->as_string()
             : std::string();
}

std::int64_t doc_version(const Json& json) {
  const Json* version = json.get("version");
  return version != nullptr && version->is_number() ? version->as_int() : -1;
}

void diff_run_reports(const Json& baseline, const Json& candidate,
                      Differ& differ) {
  // Gate on the quality block and timing; counters/heatmaps travel along
  // as informational metrics (no direction in the gate table).
  for (const char* section : {"quality", "timing", "heatmaps", "counters"}) {
    std::map<std::string, double> base_flat, cand_flat;
    if (const Json* block = baseline.get(section))
      flatten_numbers(*block, section, base_flat);
    if (const Json* block = candidate.get(section))
      flatten_numbers(*block, section, cand_flat);
    differ.compare_maps(base_flat, cand_flat, "");
  }
}

void diff_bench_reports(const Json& baseline, const Json& candidate,
                        Differ& differ) {
  const Json* base_rows = baseline.get("rows");
  const Json* cand_rows = candidate.get("rows");
  if (base_rows == nullptr || base_rows->kind() != Json::Kind::kArray) return;

  const auto row_key = [](const Json& row) {
    const Json* circuit = row.get("circuit");
    const Json* variant = row.get("variant");
    std::string key =
        circuit != nullptr && circuit->kind() == Json::Kind::kString
            ? circuit->as_string()
            : "?";
    key += '/';
    key += variant != nullptr && variant->kind() == Json::Kind::kString
               ? variant->as_string()
               : "?";
    return key;
  };

  for (const Json& base_row : base_rows->items()) {
    const std::string key = row_key(base_row);
    const Json* match = nullptr;
    if (cand_rows != nullptr && cand_rows->kind() == Json::Kind::kArray)
      for (const Json& cand_row : cand_rows->items())
        if (row_key(cand_row) == key) {
          match = &cand_row;
          break;
        }
    if (match == nullptr) {
      // A configuration the baseline measured vanished — that is a
      // regression in coverage, not a tolerance question.
      differ.missing("row " + key + " missing from candidate");
      continue;
    }
    std::map<std::string, double> base_flat, cand_flat;
    if (const Json* metrics = base_row.get("metrics"))
      flatten_numbers(*metrics, "", base_flat);
    if (const Json* metrics = match->get("metrics"))
      flatten_numbers(*metrics, "", cand_flat);
    differ.compare_maps(base_flat, cand_flat, "rows[" + key + "]");
  }
}

}  // namespace

std::optional<Direction> metric_direction(std::string_view name) {
  const MetricSpec* spec = find_spec(name);
  if (spec == nullptr) return std::nullopt;
  return spec->direction;
}

Tolerance default_tolerance(std::string_view name) {
  const MetricSpec* spec = find_spec(name);
  return spec != nullptr ? spec->tolerance : Tolerance{};
}

std::optional<DiffOptions> parse_thresholds(std::string_view text) {
  const std::optional<Json> json = Json::parse(text);
  if (!json.has_value() || json->kind() != Json::Kind::kObject)
    return std::nullopt;
  const Json* map = json->get("tolerances");
  if (map == nullptr) map = &*json;
  if (map->kind() != Json::Kind::kObject) return std::nullopt;

  DiffOptions options;
  for (const auto& [name, entry] : map->members()) {
    if (entry.kind() != Json::Kind::kObject) return std::nullopt;
    Tolerance tolerance;
    if (const Json* abs = entry.get("abs"); abs != nullptr && abs->is_number())
      tolerance.abs = abs->as_double();
    if (const Json* rel = entry.get("rel"); rel != nullptr && rel->is_number())
      tolerance.rel = rel->as_double();
    if (const Json* ignore = entry.get("ignore");
        ignore != nullptr && ignore->kind() == Json::Kind::kBool)
      tolerance.ignore = ignore->as_bool();
    options.tolerances[name] = tolerance;
  }
  return options;
}

bool DiffResult::regressed() const noexcept {
  if (!missing.empty()) return true;
  return std::any_of(deltas.begin(), deltas.end(),
                     [](const MetricDelta& d) { return d.regression; });
}

int DiffResult::exit_code() const noexcept {
  if (schema_mismatch) return kDiffSchemaMismatch;
  return regressed() ? kDiffRegression : kDiffOk;
}

DiffResult diff_reports(const Json& baseline, const Json& candidate,
                        const DiffOptions& options) {
  const std::string schema = doc_schema(baseline);
  const bool known =
      schema == kRunReportSchema || schema == kBenchReportSchema;
  if (!known || schema != doc_schema(candidate) ||
      doc_version(baseline) != doc_version(candidate)) {
    DiffResult result;
    result.schema_mismatch = true;
    return result;
  }

  Differ differ(options);
  if (schema == kRunReportSchema)
    diff_run_reports(baseline, candidate, differ);
  else
    diff_bench_reports(baseline, candidate, differ);
  return differ.take();
}

void print_diff(std::ostream& out, const DiffResult& result) {
  if (result.schema_mismatch) {
    out << "schema mismatch: documents are not comparable\n";
    return;
  }
  for (const std::string& text : result.missing)
    out << "REGRESSION  " << text << '\n';
  for (const MetricDelta& delta : result.deltas) {
    const char* tag = delta.regression ? "REGRESSION"
                      : delta.gated    ? "ok        "
                                       : "info      ";
    out << tag << "  " << delta.path << ": "
        << format_double(delta.baseline) << " -> "
        << format_double(delta.candidate) << '\n';
  }
  if (result.missing.empty() && result.deltas.empty())
    out << "no metric changes\n";
}

}  // namespace mebl::report
