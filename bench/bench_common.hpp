#pragma once

// Shared helpers for the table-reproduction harnesses. Each bench binary
// regenerates one table (or figure) of the paper on the synthetic benchmark
// suites; see DESIGN.md for the experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_suite/circuit_generator.hpp"
#include "report/report.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace mebl::bench_common {

/// Deterministic seed shared by all harnesses so tables are reproducible.
inline constexpr std::uint64_t kSeed = 20130602;  // DAC'13 publication date

/// Generator settings per suite: Faraday circuits are denser 6-layer designs.
inline bench_suite::GeneratorConfig mcnc_config() {
  bench_suite::GeneratorConfig config;
  config.pin_density = 0.05;
  return config;
}

inline bench_suite::GeneratorConfig faraday_config() {
  bench_suite::GeneratorConfig config;
  config.pin_density = 0.10;
  return config;
}

/// How expensive a harness's default circuit set may be. Full-pipeline
/// harnesses on a single core default to the nine MCNC circuits plus the
/// representative Faraday circuit (Dma); MEBL_BENCH_FULL=1 restores every
/// row of Tables I+II, MEBL_BENCH_QUICK=1 keeps the four smallest, and
/// MEBL_BENCH_CIRCUITS=<names> selects explicitly.
enum class SuiteWeight {
  kCheap,   ///< per-circuit cost is seconds: all 14 circuits by default
  kHeavy,   ///< full pipeline runs: MCNC + Dma by default
  kSmall,   ///< multiplied by many configs: the smaller MCNC circuits
};

/// The circuits a harness runs over (see SuiteWeight).
inline std::vector<bench_suite::BenchmarkSpec> selected_specs(
    SuiteWeight weight = SuiteWeight::kCheap) {
  std::vector<bench_suite::BenchmarkSpec> all = bench_suite::mcnc_suite();
  const auto faraday = bench_suite::faraday_suite();
  all.insert(all.end(), faraday.begin(), faraday.end());

  if (const char* names = std::getenv("MEBL_BENCH_CIRCUITS")) {
    std::vector<bench_suite::BenchmarkSpec> picked;
    std::string list = names;
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const std::size_t comma = list.find(',', pos);
      const std::string name =
          list.substr(pos, comma == std::string::npos ? comma : comma - pos);
      if (const auto* spec = bench_suite::find_spec(name))
        picked.push_back(*spec);
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (!picked.empty()) return picked;
  }
  if (const char* quick = std::getenv("MEBL_BENCH_QUICK");
      quick != nullptr && quick[0] == '1') {
    std::vector<bench_suite::BenchmarkSpec> picked;
    for (const auto& name : {"S5378", "S9234", "Primary1", "Struct"})
      picked.push_back(*bench_suite::find_spec(name));
    return picked;
  }
  if (const char* full = std::getenv("MEBL_BENCH_FULL");
      full != nullptr && full[0] == '1')
    return all;

  std::vector<bench_suite::BenchmarkSpec> picked;
  switch (weight) {
    case SuiteWeight::kCheap:
      return all;
    case SuiteWeight::kHeavy:
      picked = bench_suite::mcnc_suite();
      picked.push_back(*bench_suite::find_spec("Dma"));
      return picked;
    case SuiteWeight::kSmall:
      for (const auto& name :
           {"Struct", "Primary1", "Primary2", "S5378", "S9234", "S13207"})
        picked.push_back(*bench_suite::find_spec(name));
      return picked;
  }
  return all;
}

/// Shared `--threads N` handling for the table harnesses: the worker count
/// handed to RouterConfig::with_threads (0 = one worker per hardware
/// thread). The MEBL_THREADS environment variable is the fallback so suite
/// drivers can set it once. Routed metrics are identical for every value;
/// only the CPU columns change.
inline int threads_from_args(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::string(argv[i]) == "--threads") return std::atoi(argv[i + 1]);
  if (const char* env = std::getenv("MEBL_THREADS")) return std::atoi(env);
  return 0;
}

inline bench_suite::GeneratorConfig config_for(
    const bench_suite::BenchmarkSpec& spec) {
  return spec.layers >= 6 ? faraday_config() : mcnc_config();
}

inline bench_suite::GeneratedCircuit generate(
    const bench_suite::BenchmarkSpec& spec) {
  return bench_suite::generate_circuit(spec, config_for(spec), kSeed);
}

/// The first `count` nets with at least two pins (single-pin nets carry no
/// subnets, so an ECO on them would measure nothing).
inline std::vector<netlist::NetId> routable_nets(
    const netlist::Netlist& netlist, std::size_t count) {
  std::vector<netlist::NetId> nets;
  for (const netlist::Net& net : netlist.nets()) {
    if (net.degree() < 2) continue;
    nets.push_back(net.id);
    if (nets.size() == count) break;
  }
  return nets;
}

/// Keep table output clean: only warnings and errors on stderr.
struct QuietLogs {
  QuietLogs() { util::Log::set_level(util::LogLevel::kWarn); }
};

/// Shared `--trace FILE` / `--stats FILE` handling for the table harnesses:
/// construct at the top of main with (argc, argv); when either flag is
/// present the scope enables tracing up front and writes the machine-
/// readable artifacts when it is destroyed, so every table run can leave a
/// Chrome/Perfetto trace and a counter dump next to its ASCII table.
/// Unrelated arguments are ignored (the harnesses have none of their own).
class TelemetryScope {
 public:
  TelemetryScope(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--trace" && i + 1 < argc)
        trace_path_ = argv[++i];
      else if (arg == "--stats" && i + 1 < argc)
        stats_path_ = argv[++i];
    }
    if (!trace_path_.empty()) telemetry::Tracer::enable();
  }

  ~TelemetryScope() {
    if (!trace_path_.empty()) {
      if (telemetry::Tracer::write_chrome_trace_file(trace_path_))
        std::cerr << "[mebl bench] wrote trace to " << trace_path_ << "\n";
      else
        std::cerr << "[mebl bench] cannot write " << trace_path_ << "\n";
    }
    if (!stats_path_.empty()) {
      if (telemetry::write_stats_file(stats_path_))
        std::cerr << "[mebl bench] wrote stats to " << stats_path_ << "\n";
      else
        std::cerr << "[mebl bench] cannot write " << stats_path_ << "\n";
    }
  }

  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  std::string trace_path_;
  std::string stats_path_;
};

/// Shared `--json FILE` handling: collect one BenchRow per measured
/// (circuit, variant) configuration and write the machine-readable
/// mebl.bench_report artifact when the scope is destroyed. With no --json
/// flag, setting MEBL_BENCH_JSON=1 writes BENCH_<name>.json into the
/// working directory, so suite drivers can turn every harness into a
/// regression baseline for `mebl_report diff` with one environment
/// variable. Rows keep insertion order (the table's row order).
class ReportScope {
 public:
  ReportScope(std::string bench_name, int argc, char** argv) {
    report_.bench = std::move(bench_name);
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--json" && i + 1 < argc)
        json_path_ = argv[++i];
    if (json_path_.empty()) {
      if (const char* on = std::getenv("MEBL_BENCH_JSON");
          on != nullptr && on[0] == '1')
        json_path_ = "BENCH_" + report_.bench + ".json";
    }
  }

  ~ReportScope() {
    if (json_path_.empty()) return;
    if (report_.write_file(json_path_))
      std::cerr << "[mebl bench] wrote " << json_path_ << "\n";
    else
      std::cerr << "[mebl bench] cannot write " << json_path_ << "\n";
  }

  ReportScope(const ReportScope&) = delete;
  ReportScope& operator=(const ReportScope&) = delete;

  /// True when a JSON artifact will be written (lets a harness skip
  /// collecting when nobody asked).
  [[nodiscard]] bool enabled() const noexcept { return !json_path_.empty(); }

  /// Record one measured configuration with the shared quality columns.
  void add(const std::string& circuit, const std::string& variant,
           const report::QualitySummary& summary) {
    report_.rows.push_back({circuit, variant, summary.to_metrics()});
  }

  /// Record one measured configuration with harness-specific metrics.
  void add(const std::string& circuit, const std::string& variant,
           report::Json::Object metrics) {
    report_.rows.push_back({circuit, variant, std::move(metrics)});
  }

 private:
  report::BenchReport report_;
  std::string json_path_;
};

}  // namespace mebl::bench_common
