// perfbench — the repository benchmark (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//             [--socket-dir DIR]
//
// Every workload generates a named suite circuit, round-trips it through
// the MEBL1 text format, and then drives the router only through public
// entry points: core::StitchAwareRouter::run with a benchmark-side
// core::ProgressObserver, and an in-process serve::Server driven by one
// closed-loop serve::Client over AF_UNIX. Each workload has a route leg
// (full routes) and an ECO leg (a stream of 10-net ECOs drawn from
// --seed); which of the two is timed against --seconds is what
// distinguishes the workloads:
//
//   route_s38417      batch routes of laptop-scale S38417 at 4 threads
//   eco_s15850        ECO stream against S15850, daemon at 1 lane x 1 thread
//   route_s5378_full  batch routes of paper-scale S5378 at 4 threads
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// (from a run with telemetry::Tracer on) with --trace 1. --smoke swaps in a
// small circuit and short streams so the self-check runs in seconds.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <sched.h>
#include <unistd.h>

#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "netlist/io.hpp"
#include "report/report.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "telemetry/keys.hpp"
#include "telemetry/telemetry.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace mebl;
namespace keys = telemetry::keys;

// ------------------------------------------------------------ workloads

struct Workload {
  std::string_view name;
  std::string_view circuit;  ///< bench_suite spec name
  bool full_scale;           ///< GeneratorConfig::full_scale() + tiled grid
  int threads;               ///< router threads, batch and daemon alike
  bool eco_timed;            ///< the ECO stream, not the route, is timed
};

constexpr Workload kWorkloads[] = {
    {"route_s38417", "S38417", false, 4, false},
    {"eco_s15850", "S15850", false, 1, true},
    {"route_s5378_full", "S5378", true, 4, false},
};

/// How much work one run does. Timed loops also continue until --seconds
/// would be overrun by one more operation.
struct Plan {
  /// Setup repetitions per batch. Route workloads run a batch before the
  /// first timed route and one after each; the eco workload one before the
  /// ECO stream and one after it. setup_s is the median over all of them,
  /// so it samples the whole run rather than its first seconds.
  int setup_reps;
  int min_routes;  ///< timed batch routes (route workloads)
  /// ECOs per burst of the ECO leg: the timed minimum on the eco workload
  /// (>= 100, so p90 has 10 samples above it), a fixed count on the route
  /// workloads.
  int ecos;
  /// Bursts of the ECO leg before its verify ECO. The eco workload streams
  /// one; the route workloads run theirs before the first timed route,
  /// after the middle one and after the last, so the ECO samples span the
  /// run as the routes do.
  int bursts;
};

Plan plan_for(const Workload& workload, bool smoke, bool trace) {
  // A traced run alternates traced and untraced timed operations, so it
  // needs at least two of them to report the tracing overhead.
  const int bursts = workload.eco_timed ? 1 : 3;
  if (smoke) return {1, trace ? 2 : 1, 4, bursts};
  if (workload.eco_timed) return {2, 0, 100, bursts};
  // Two routes even on S38417 (~15-20 s each): one long sample per run
  // follows the host's speed swings too closely.
  return {11, 2, 16, bursts};
}

constexpr int kEcoNets = 10;  ///< nets rerouted per ECO

/// Generator seed of the named circuits: the suite seed every table of the
/// reproduction uses (bench_common::kSeed). The circuits stay fixed like
/// the published benchmark files; --seed drives the ECO streams.
constexpr std::uint64_t kCircuitSeed = 20130602;

/// The design the route workloads' ECO leg runs against: the smallest MCNC
/// circuit, whose ECOs take tens of milliseconds where one on S38417 or on
/// paper-scale S5378 takes seconds.
constexpr std::string_view kProbeCircuit = "S5378";

// -------------------------------------------------------------- helpers

std::uint64_t now_ns() { return telemetry::now_ns(); }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Linear-interpolated percentile, p in [0, 1].
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct MemSample {
  double hwm_mb = 0.0;  ///< VmHWM: peak resident set so far
  double rss_mb = 0.0;  ///< VmRSS: resident set now
};

MemSample read_memory() {
  MemSample sample;
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    const auto field_mb = [&] {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    };
    if (line.rfind("VmHWM:", 0) == 0) sample.hwm_mb = field_mb();
    if (line.rfind("VmRSS:", 0) == 0) sample.rss_mb = field_mb();
  }
  return sample;
}

/// Summed span durations (seconds) by span name.
using SpanTotals = std::map<std::string, double>;

/// Drain the tracer: totals of everything recorded since the last drain.
SpanTotals drain_spans() {
  SpanTotals totals;
  for (const telemetry::SpanEvent& event : telemetry::Tracer::events())
    totals[event.name] += static_cast<double>(event.dur_ns) / 1e9;
  telemetry::Tracer::clear();
  return totals;
}

double span_s(const SpanTotals& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second;
}

telemetry::HistogramSnapshot astar_histogram() {
  return telemetry::snapshot_histogram(
      telemetry::histogram(keys::kAstarSearchNs));
}

telemetry::HistogramSnapshot histogram_delta(
    const telemetry::HistogramSnapshot& before,
    const telemetry::HistogramSnapshot& after) {
  telemetry::HistogramSnapshot delta;
  delta.count = after.count - before.count;
  delta.total_ns = after.total_ns - before.total_ns;
  for (std::size_t b = 0; b < delta.buckets.size(); ++b)
    delta.buckets[b] = after.buckets[b] - before.buckets[b];
  return delta;
}

// ----------------------------------------------------------- route leg

constexpr std::size_t kStages = 5;  ///< core::Stage values, in order

constexpr const char* kStageSpans[kStages] = {
    "perfbench.stage.global", "perfbench.stage.layer_assign",
    "perfbench.stage.track_assign", "perfbench.stage.detail",
    "perfbench.stage.metrics"};

std::optional<std::size_t> stage_index(std::string_view name) {
  for (std::size_t i = 0; i < kStages; ++i)
    if (name == core::stage_name(static_cast<core::Stage>(i))) return i;
  return std::nullopt;
}

/// What one full route (batch or daemon) showed the benchmark.
struct RouteProfile {
  bool ok = false;
  double wall_s = 0.0;  ///< construct + run of the router
  std::array<double, kStages> stage_s{};       ///< router-reported walls
  MemSample mem_before;                        ///< at route start
  std::array<MemSample, kStages> stage_mem{};  ///< at each stage end
  telemetry::StatsSnapshot counters;           ///< this route's deltas
  telemetry::HistogramSnapshot astar;          ///< this route's searches
  SpanTotals spans;                            ///< empty when untraced
  eval::RouteMetrics metrics;
};

/// Benchmark-side observer: stage walls, memory at every stage end, and
/// one span per stage when the tracer is on.
class StageProbe final : public core::ProgressObserver {
 public:
  explicit StageProbe(RouteProfile& profile) : profile_(profile) {}

  void on_stage_begin(core::Stage stage) override {
    begin_ns_[static_cast<std::size_t>(stage)] = now_ns();
  }
  void on_stage_end(core::Stage stage, double seconds) override {
    const std::size_t i = static_cast<std::size_t>(stage);
    profile_.stage_s[i] = seconds;
    profile_.stage_mem[i] = read_memory();
    telemetry::Tracer::record_span(kStageSpans[i], begin_ns_[i],
                                   now_ns() - begin_ns_[i]);
  }

 private:
  RouteProfile& profile_;
  std::array<std::uint64_t, kStages> begin_ns_{};
};

RouteProfile route_batch(const netlist::Design& design,
                         const core::RouterConfig& config, bool traced) {
  RouteProfile profile;
  StageProbe probe(profile);
  const telemetry::HistogramSnapshot astar_before = astar_histogram();
  if (traced) telemetry::Tracer::enable();
  profile.mem_before = read_memory();
  const std::uint64_t start = now_ns();
  core::RoutingResult result = [&] {
    core::StitchAwareRouter router(design.grid, design.netlist, config);
    router.set_observer(&probe);
    return router.run();
  }();
  const std::uint64_t wall_ns = now_ns() - start;
  telemetry::Tracer::record_span("perfbench.route", start, wall_ns);
  if (traced) {
    telemetry::Tracer::disable();
    profile.spans = drain_spans();
  }
  profile.wall_s = static_cast<double>(wall_ns) / 1e9;
  profile.astar = histogram_delta(astar_before, astar_histogram());
  profile.counters = result.stats();
  profile.metrics = result.metrics;
  profile.ok = !result.cancelled && result.metrics.vertical_violations == 0;
  return profile;
}

// ------------------------------------------------------------ ECO leg

/// One in-process daemon (1 lane) with one connected client.
class Daemon {
 public:
  Daemon(const std::string& socket_path, int threads,
         const core::RouterConfig& router) {
    serve::ServerConfig config;
    config.socket_path = socket_path;
    config.threads = threads;
    config.lanes = 1;
    config.cache_capacity = 1;
    config.router = router;
    server_ = std::make_unique<serve::Server>(std::move(config));
    if (!server_->start() || !client_.connect(server_->socket_path()))
      throw std::runtime_error("cannot start the daemon on " + socket_path);
  }
  ~Daemon() {
    client_.disconnect();
    server_->stop();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  serve::Client& client() { return client_; }

 private:
  std::unique_ptr<serve::Server> server_;
  serve::Client client_;
};

std::optional<report::RunReport> report_of(const serve::Response& response) {
  const report::Json* json = response.payload.get("report");
  if (json == nullptr) return std::nullopt;
  return report::parse_run_report(*json);
}

const std::string kDesignName = "bench";

/// Load `text` into the daemon and route it; the profile's stage walls and
/// memory come from the streamed progress events. `latency_s` receives the
/// client-observed route time.
RouteProfile load_and_route(Daemon& daemon, const std::string& text,
                            bool traced, double& latency_s) {
  RouteProfile profile;
  serve::Request load;
  load.op = serve::Op::kLoad;
  load.design = kDesignName;
  load.design_text = text;
  const std::optional<serve::Response> loaded =
      daemon.client().call(std::move(load));
  if (!loaded || loaded->type != "done") return profile;

  serve::Request route;
  route.op = serve::Op::kRoute;
  route.design = kDesignName;
  std::array<std::uint64_t, kStages> begin_ns{};
  const auto on_progress = [&](const serve::Response& event) {
    const report::Json* kind = event.payload.get("event");
    const report::Json* stage = event.payload.get("stage");
    if (kind == nullptr || stage == nullptr) return;
    const std::optional<std::size_t> i = stage_index(stage->as_string());
    if (!i) return;
    if (kind->as_string() == "stage_begin") {
      begin_ns[*i] = now_ns();
    } else if (kind->as_string() == "stage_end") {
      if (const report::Json* seconds = event.payload.get("seconds"))
        profile.stage_s[*i] = seconds->as_double();
      profile.stage_mem[*i] = read_memory();
      telemetry::Tracer::record_span(kStageSpans[*i], begin_ns[*i],
                                     now_ns() - begin_ns[*i]);
    }
  };
  const telemetry::HistogramSnapshot astar_before = astar_histogram();
  if (traced) telemetry::Tracer::enable();
  profile.mem_before = read_memory();
  const std::uint64_t start = now_ns();
  const std::optional<serve::Response> routed =
      daemon.client().call(std::move(route), on_progress);
  const std::uint64_t latency_ns = now_ns() - start;
  telemetry::Tracer::record_span("perfbench.route", start, latency_ns);
  if (traced) {
    telemetry::Tracer::disable();
    profile.spans = drain_spans();
  }
  latency_s = static_cast<double>(latency_ns) / 1e9;
  profile.astar = histogram_delta(astar_before, astar_histogram());
  if (!routed || routed->type != "done") return profile;
  const std::optional<report::RunReport> run = report_of(*routed);
  if (!run) return profile;
  if (const report::Json* seconds = routed->payload.get("seconds"))
    profile.wall_s = seconds->as_double();
  profile.counters = run->counters;
  profile.metrics = run->metrics;
  profile.ok = !run->cancelled && run->metrics.vertical_violations == 0;
  return profile;
}

/// What one client ECO call showed the benchmark.
struct EcoSample {
  bool ok = false;
  double latency_ms = 0.0;  ///< client-observed, send to terminal line
  double job_ms = 0.0;      ///< the response's own timing
  double response_kb = 0.0;  ///< re-encoded terminal line (traced only)
  std::int64_t dirty_subnets = 0;
  bool fallback = false;
  SpanTotals spans;  ///< empty when untraced
  eval::RouteMetrics metrics;
};

EcoSample eco_call(serve::Client& client, std::vector<netlist::NetId> nets,
                   bool verify, bool traced) {
  EcoSample sample;
  serve::Request request;
  request.op = serve::Op::kEco;
  request.design = kDesignName;
  request.nets = std::move(nets);
  request.verify = verify;
  if (traced) telemetry::Tracer::enable();
  const std::uint64_t start = now_ns();
  const std::optional<serve::Response> response =
      client.call(std::move(request));
  const std::uint64_t latency_ns = now_ns() - start;
  telemetry::Tracer::record_span("perfbench.eco", start, latency_ns);
  if (traced) {
    telemetry::Tracer::disable();
    sample.spans = drain_spans();
  }
  sample.latency_ms = static_cast<double>(latency_ns) / 1e6;
  if (!response || response->type != "done") return sample;
  if (traced)
    sample.response_kb =
        static_cast<double>(serve::encode(*response).size()) / 1024.0;
  if (const report::Json* seconds = response->payload.get("seconds"))
    sample.job_ms = seconds->as_double() * 1e3;
  bool verified = !verify;
  if (const report::Json* eco = response->payload.get("eco")) {
    if (const report::Json* dirty = eco->get("dirty_subnets"))
      sample.dirty_subnets = dirty->as_int();
    if (const report::Json* fallback = eco->get("fallback_full"))
      sample.fallback = fallback->as_bool();
    if (verify) {
      const report::Json* ok = eco->get("verified");
      const report::Json* mismatch = eco->get("verify_mismatch");
      verified = ok != nullptr && ok->as_bool() && mismatch != nullptr &&
                 !mismatch->as_bool();
    }
  }
  const std::optional<report::RunReport> run = report_of(*response);
  if (!run) return sample;
  sample.metrics = run->metrics;
  sample.ok = verified && !run->cancelled &&
              run->metrics.vertical_violations == 0;
  return sample;
}

/// The seeded ECO stream: every ECO names kEcoNets distinct nets that have
/// at least two pins.
class EcoPicker {
 public:
  EcoPicker(const netlist::Netlist& netlist, std::uint64_t seed)
      : rng_(seed ^ 0x9e3779b97f4a7c15ULL) {
    for (const netlist::Net& net : netlist.nets())
      if (net.degree() >= 2) routable_.push_back(net.id);
    if (routable_.size() < static_cast<std::size_t>(kEcoNets))
      throw std::runtime_error("design has too few routable nets");
  }

  std::vector<netlist::NetId> next() {
    std::vector<netlist::NetId> nets;
    while (nets.size() < static_cast<std::size_t>(kEcoNets)) {
      const netlist::NetId net = routable_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(routable_.size()) - 1))];
      if (std::find(nets.begin(), nets.end(), net) == nets.end())
        nets.push_back(net);
    }
    std::sort(nets.begin(), nets.end());
    return nets;
  }

 private:
  util::Rng rng_;
  std::vector<netlist::NetId> routable_;
};

// ---------------------------------------------------------------- setup

struct Prepared {
  netlist::Design design;
  std::string text;  ///< MEBL1
};

/// Generate the circuit and parse it back from its MEBL1 text: the inputs
/// every workload starts from.
Prepared prepare(const bench_suite::BenchmarkSpec& spec,
                 const bench_suite::GeneratorConfig& config,
                 std::uint64_t seed) {
  bench_suite::GeneratedCircuit circuit =
      bench_suite::generate_circuit(spec, config, seed);
  std::ostringstream out;
  netlist::write_design(out, netlist::Design{std::move(circuit.grid),
                                             std::move(circuit.netlist)});
  std::string text = out.str();
  std::istringstream in(text);
  std::optional<netlist::Design> design = netlist::read_design(in);
  if (!design) throw std::runtime_error("generated design does not parse");
  return {std::move(*design), std::move(text)};
}

// --------------------------------------------------------------- output

/// Metrics by name, each {"value": v, "unit": u}.
class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit) {
    report::Json::Object metric;
    metric["value"] = value;
    metric["unit"] = unit;
    metrics_[name] = std::move(metric);
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  void print(bool correct, int attempted, int failed) && {
    report::Json::Object result;
    result["correct"] = correct;
    result["attempted"] = attempted;
    result["failed"] = failed;
    result["metrics"] = std::move(metrics_);
    std::cout << serve::dump_line(std::move(result)) << std::endl;
  }

 private:
  report::Json::Object metrics_;
};

// ------------------------------------------------------------------ run

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool smoke = false;
  std::string socket_dir = ".";
};

std::optional<Options> parse_args(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (arg == "--workload") options.workload = value;
    else if (arg == "--seed") options.seed = std::stoull(value);
    else if (arg == "--seconds") options.seconds = std::stod(value);
    else if (arg == "--trace") options.trace = value == "1";
    else if (arg == "--socket-dir") options.socket_dir = value;
    else return std::nullopt;
  }
  if (options.workload.empty()) return std::nullopt;
  return options;
}

/// Operation tally behind ok_pct / attempted / failed.
struct Tally {
  int attempted = 0;
  int failed = 0;
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Seconds since `start_ns`.
double since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

/// True when one more operation, at the mean duration of the `done` ones
/// (together `busy_s`), would take the timed total past `seconds`.
bool window_full(double busy_s, int done, double seconds) {
  return done == 0 || busy_s * (done + 1) / done > seconds;
}

/// The traced run's stage table for the first route: where the time and
/// the peak resident set grew.
void print_stage_table(const RouteProfile& profile) {
  std::cout << "# stage          seconds   VmHWM_MB   VmRSS_MB   HWM_gained_MB\n";
  double hwm = profile.mem_before.hwm_mb;
  for (std::size_t i = 0; i < kStages; ++i) {
    const MemSample& mem = profile.stage_mem[i];
    char row[128];
    std::snprintf(row, sizeof row, "# %-14s %8.3f %10.1f %10.1f %15.1f\n",
                  core::stage_name(static_cast<core::Stage>(i)),
                  profile.stage_s[i], mem.hwm_mb, mem.rss_mb,
                  mem.hwm_mb - hwm);
    std::cout << row;
    hwm = mem.hwm_mb;
  }
}

/// Per-layer metrics of the route leg: times are medians over `routes`,
/// counts come from the last route (they repeat exactly), memory from the
/// first (VmHWM only grows afterwards).
void add_route_layers(Metrics& out, const std::vector<RouteProfile>& routes) {
  const auto med = [&](auto&& pick) {
    std::vector<double> values;
    for (const RouteProfile& route : routes) values.push_back(pick(route));
    return median(std::move(values));
  };
  const auto stage_s = [](const RouteProfile& r, core::Stage s) {
    return r.stage_s[static_cast<std::size_t>(s)];
  };
  const auto stage = [&](core::Stage s) {
    return med([&](const RouteProfile& r) { return stage_s(r, s); });
  };
  const auto phase = [&](const char* span) {
    return med([&](const RouteProfile& r) { return span_s(r.spans, span); });
  };
  const RouteProfile& last = routes.back();
  const auto count = [&](const char* key) {
    return static_cast<double>(last.counters.value(key));
  };
  const auto hwm_after = [&](core::Stage s) {
    return routes.front().stage_mem[static_cast<std::size_t>(s)].hwm_mb;
  };
  using core::Stage;

  out.add("core.unattributed_s", med([](const RouteProfile& r) {
            double staged = 0.0;
            for (const double s : r.stage_s) staged += s;
            return r.wall_s - staged;
          }), "s");
  out.add("global.stage_s", stage(Stage::kGlobal), "s");
  out.add("global.search_pops", count(keys::kGlobalSearchPops), "count");
  out.add("global.tiles_materialized", count(keys::kGridTilesMaterialized),
          "count");
  out.add("global.storage_bytes", count(keys::kGridStorageBytes), "bytes");
  out.add("assign.stage_s", med([&](const RouteProfile& r) {
            return stage_s(r, Stage::kLayerAssign) +
                   stage_s(r, Stage::kTrackAssign);
          }), "s");
  out.add("assign.track_ilp_ms", count(keys::kTrackIlpNs) / 1e6, "ms");
  out.add("detail.stage_s", stage(Stage::kDetail), "s");
  out.add("detail.main_pass_s", phase("detail.main_pass"), "s");
  out.add("detail.rescue_s", phase("detail.rescue"), "s");
  out.add("detail.sp_cleanup_s", phase("detail.sp_cleanup"), "s");
  out.add("detail.unattributed_s", med([&](const RouteProfile& r) {
            return stage_s(r, Stage::kDetail) -
                   span_s(r.spans, "detail.main_pass") -
                   span_s(r.spans, "detail.rescue") -
                   span_s(r.spans, "detail.sp_cleanup");
          }), "s");
  out.add("detail.astar_searches", count(keys::kAstarSearches), "count");
  out.add("detail.astar_expansions", count(keys::kAstarExpansions), "count");
  out.add("detail.astar_p50_us",
          static_cast<double>(last.astar.quantile_ns(0.50)) / 1e3, "us");
  out.add("detail.astar_p99_us",
          static_cast<double>(last.astar.quantile_ns(0.99)) / 1e3, "us");
  out.add("detail.escalations", count(keys::kDetailEscalations), "count");
  out.add("detail.batched_fraction",
          ratio(count(keys::kDetailBatchedSubnets),
                count(keys::kDetailBatchedSubnets) +
                    count(keys::kDetailSequentialSubnets)),
          "ratio");
  out.add("detail.rescue_yield",
          ratio(count(keys::kRipupRescued), count(keys::kRipupVictims)),
          "ratio");
  out.add("detail.sp_cleanup_nets", count(keys::kSpCleanupNets), "count");
  out.add("detail.failed_subnets", count(keys::kSubnetsFailed), "count");
  out.add("eval.stage_s", stage(Stage::kMetrics), "s");
  out.add("mem.hwm_after_global_mb", hwm_after(Stage::kGlobal), "MB");
  out.add("mem.hwm_after_assign_mb", hwm_after(Stage::kTrackAssign), "MB");
  out.add("mem.hwm_after_detail_mb", hwm_after(Stage::kDetail), "MB");
}

/// Per-layer metrics of the ECO leg, over the traced non-verify ECOs.
void add_serve_layers(Metrics& out, const std::vector<EcoSample>& ecos) {
  std::vector<const EcoSample*> traced;
  for (const EcoSample& eco : ecos)
    if (!eco.spans.empty()) traced.push_back(&eco);
  const auto collect = [&](auto&& pick) {
    std::vector<double> values;
    for (const EcoSample* eco : traced) values.push_back(pick(*eco));
    return values;
  };
  const auto span_ms = [&](const char* name) {
    return mean(
        collect([&](const EcoSample& e) { return span_s(e.spans, name) * 1e3; }));
  };
  double fallbacks = 0.0;
  for (const EcoSample* eco : traced) fallbacks += eco->fallback ? 1.0 : 0.0;

  out.add("serve.job_ms_p50",
          median(collect([](const EcoSample& e) { return e.job_ms; })), "ms");
  out.add("serve.queue_wait_ms_p50", median(collect([](const EcoSample& e) {
            return span_s(e.spans, "serve.queue_wait") * 1e3;
          })), "ms");
  out.add("serve.transport_ms_p50", median(collect([](const EcoSample& e) {
            return e.latency_ms - e.job_ms;
          })), "ms");
  out.add("serve.response_kb",
          median(collect([](const EcoSample& e) { return e.response_kb; })),
          "KiB");
  out.add("serve.eco_dirty_subnets", mean(collect([](const EcoSample& e) {
            return static_cast<double>(e.dirty_subnets);
          })), "count");
  out.add("serve.eco_fallbacks", fallbacks, "count");
  out.add("serve.eco_global_ms", span_ms("serve.eco.global"), "ms");
  out.add("serve.eco_assign_ms", span_ms("serve.eco.assign"), "ms");
  out.add("serve.eco_detail_ms", span_ms("serve.eco.detail"), "ms");
  out.add("serve.eco_sp_cleanup_ms", span_ms("detail.sp_cleanup"), "ms");
  out.add("serve.eco_rescue_ms", span_ms("detail.rescue"), "ms");
}

int run(const Options& options) {
  const Workload* found = nullptr;
  for (const Workload& workload : kWorkloads)
    if (workload.name == options.workload) found = &workload;
  if (found == nullptr) {
    std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
    return 2;
  }
  const Workload& workload = *found;
  const Plan plan = plan_for(workload, options.smoke, options.trace);

  // In smoke mode every design is one small circuit.
  const auto spec_of = [&](std::string_view name) {
    if (options.smoke)
      return bench_suite::BenchmarkSpec{"smoke", 60.0, 40.0, 3, 200, 560, 36};
    return *bench_suite::find_spec(std::string(name));
  };
  bench_suite::GeneratorConfig mcnc;
  mcnc.pin_density = 0.05;  // the MCNC suite settings
  const bench_suite::GeneratorConfig generator =
      workload.full_scale ? bench_suite::GeneratorConfig::full_scale() : mcnc;
  core::RouterConfig router =
      core::RouterConfig::stitch_aware().with_threads(workload.threads);
  if (workload.full_scale) router.with_tiled_grid(true).with_multilevel(true);

  const std::string socket_prefix = options.socket_dir + "/perfbench-" +
                                    std::to_string(::getpid()) + "-";
  int daemons_started = 0;
  const auto start_daemon = [&](const core::RouterConfig& config) {
    return std::make_unique<Daemon>(
        socket_prefix + std::to_string(daemons_started++) + ".sock",
        workload.threads, config);
  };

  Tally tally;
  std::vector<double> setup_s;
  std::vector<RouteProfile> routes;     ///< route leg profiles
  std::vector<double> route_s;          ///< route leg walls, untraced
  std::vector<double> traced_op_s;      ///< timed ops run with the tracer
  std::vector<double> untraced_op_s;    ///< timed ops run without it
  std::vector<EcoSample> ecos;          ///< ECO leg, verify ECO excluded
  std::vector<std::size_t> burst_starts;  ///< index into `ecos` per burst
  eval::RouteMetrics quality;
  double peak_rss_mb = 0.0;
  std::optional<Prepared> prepared;
  std::unique_ptr<Daemon> daemon;

  // One burst of the ECO leg: `count` ECOs — on the eco workload at least
  // that many and until --seconds, traced and untraced alternating in a
  // traced run.
  const auto run_ecos = [&](EcoPicker& picker, int count) {
    burst_starts.push_back(ecos.size());
    const bool timed = workload.eco_timed;
    double busy_s = 0.0;
    for (int i = 0;; ++i) {
      if (i >= count && (!timed || window_full(busy_s, i, options.seconds)))
        break;
      const bool traced = options.trace && (!timed || i % 2 == 0);
      EcoSample sample =
          eco_call(daemon->client(), picker.next(), false, traced);
      tally.count(sample.ok);
      busy_s += sample.latency_ms / 1e3;
      if (timed)
        (traced ? traced_op_s : untraced_op_s)
            .push_back(sample.latency_ms / 1e3);
      ecos.push_back(std::move(sample));
    }
  };
  // The ECO that closes the leg asks for the bit-identity replay: a
  // correctness check rather than a latency sample. Returns it.
  const auto verify_eco = [&](EcoPicker& picker) {
    EcoSample verified = eco_call(daemon->client(), picker.next(), true, false);
    tally.count(verified.ok);
    return verified;
  };

  // The CPUs of a shared host run at different speeds, each switching over
  // seconds (the same route-workload setup took 2.3 ms on one CPU and
  // 4.0 ms on another at the same moment), and a batch of setups lasts well
  // under a second on one of them. Each batch therefore rotates its
  // repetitions over every CPU the process may use, then restores the mask
  // before any router thread inherits it.
  cpu_set_t allowed;
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) == 0)
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  const auto setup_routes = [&] {
    for (int rep = 0; rep < plan.setup_reps; ++rep) {
      if (!cpus.empty()) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[static_cast<std::size_t>(rep) % cpus.size()], &one);
        ::sched_setaffinity(0, sizeof one, &one);
      }
      const std::uint64_t start = now_ns();
      prepared.emplace(
          prepare(spec_of(workload.circuit), generator, kCircuitSeed));
      setup_s.push_back(since(start));
    }
    if (!cpus.empty()) ::sched_setaffinity(0, sizeof allowed, &allowed);
  };
  const auto setup_daemon = [&] {
    for (int rep = 0; rep < plan.setup_reps; ++rep) {
      daemon.reset();
      const std::uint64_t start = now_ns();
      prepared.emplace(
          prepare(spec_of(workload.circuit), generator, kCircuitSeed));
      daemon = start_daemon(router);
      double latency_s = 0.0;
      RouteProfile profile =
          load_and_route(*daemon, prepared->text, options.trace, latency_s);
      setup_s.push_back(since(start));
      tally.count(profile.ok);
      route_s.push_back(latency_s);
      routes.push_back(std::move(profile));
    }
  };

  if (!workload.eco_timed) {
    // Setup: generate + MEBL1 round trip.
    setup_routes();
    // ECO leg: bursts against the probe circuit (an ECO on the workload's
    // own circuit costs seconds), at the workload's threads, in the gaps
    // between the timed routes. Its daemon stays resident from its start,
    // which the traced run defers until after its first route: that
    // route's per-stage memory must not include the probe design.
    std::optional<EcoPicker> picker;
    const auto start_probe = [&] {
      const Prepared probe =
          prepare(spec_of(kProbeCircuit), mcnc, kCircuitSeed);
      daemon = start_daemon(
          core::RouterConfig::stitch_aware().with_threads(workload.threads));
      double latency_s = 0.0;
      tally.count(load_and_route(*daemon, probe.text, false, latency_s).ok);
      picker.emplace(probe.design.netlist, options.seed);
      run_ecos(*picker, plan.ecos);
    };
    if (!options.trace) start_probe();
    // Timed: full batch routes through StitchAwareRouter::run.
    double busy_s = 0.0;
    for (int i = 0;; ++i) {
      if (i >= plan.min_routes && window_full(busy_s, i, options.seconds))
        break;
      const bool traced = options.trace && i % 2 == 0;
      RouteProfile profile = route_batch(prepared->design, router, traced);
      tally.count(profile.ok);
      busy_s += profile.wall_s;
      (traced ? traced_op_s : untraced_op_s).push_back(profile.wall_s);
      if (!traced) route_s.push_back(profile.wall_s);
      if (traced || !options.trace) routes.push_back(std::move(profile));
      setup_routes();
      if (!daemon) {
        start_probe();
        continue;
      }
      // The inner bursts are due evenly over the routes the window is
      // expected to hold; the last one follows the last route.
      const int done = i + 1;
      const int expected =
          std::max({plan.min_routes, done,
                    static_cast<int>(options.seconds * done / busy_s)});
      const int run_bursts = static_cast<int>(burst_starts.size());
      if (run_bursts < plan.bursts - 1 &&
          done * (plan.bursts - 1) >= expected * run_bursts)
        run_ecos(*picker, plan.ecos);
    }
    while (static_cast<int>(burst_starts.size()) < plan.bursts)
      run_ecos(*picker, plan.ecos);
    verify_eco(*picker);
    quality = routes.back().metrics;
    peak_rss_mb = read_memory().hwm_mb;
  } else {
    // Setup: generate + MEBL1 round trip, start a fresh daemon, load, full
    // route; the last daemon of the first batch serves the stream.
    setup_daemon();
    EcoPicker picker(prepared->design.netlist, options.seed);
    run_ecos(picker, plan.ecos);
    quality = verify_eco(picker).metrics;
    peak_rss_mb = read_memory().hwm_mb;
    setup_daemon();
  }
  daemon.reset();

  // Raw samples on stderr, for judging a run's spread by eye.
  std::cerr << "perfbench: setup_s";
  for (const double s : setup_s) std::cerr << ' ' << s;
  std::cerr << "\nperfbench: timed op s";
  for (const double s : untraced_op_s) std::cerr << ' ' << s;
  std::cerr << "\nperfbench: eco ms";
  for (std::size_t e = 0; e < ecos.size(); ++e)
    std::cerr << (std::count(burst_starts.begin(), burst_starts.end(), e) > 0
                      ? " |" : "")
              << ' ' << ecos[e].latency_ms;
  std::cerr << '\n';

  const bool correct = tally.failed == 0;
  Metrics out;
  if (!options.trace) {
    // Each ECO percentile is the median over the bursts of the burst's own
    // percentile, so a slow stretch of the host decides only its burst.
    const auto eco_percentile = [&](double p) {
      std::vector<double> per_burst;
      for (std::size_t b = 0; b < burst_starts.size(); ++b) {
        const std::size_t end =
            b + 1 < burst_starts.size() ? burst_starts[b + 1] : ecos.size();
        std::vector<double> latencies;
        for (std::size_t e = burst_starts[b]; e < end; ++e)
          latencies.push_back(ecos[e].latency_ms);
        per_burst.push_back(percentile(std::move(latencies), p));
      }
      return median(std::move(per_burst));
    };
    out.add("route_s", median(route_s), "s");
    out.add("setup_s", median(setup_s), "s");
    out.add("peak_rss_mb", peak_rss_mb, "MB");
    out.add("ok_pct",
            100.0 * (tally.attempted - tally.failed) / tally.attempted, "%");
    out.add("routed_pct", quality.routability_pct(), "%");
    out.add("short_polygons", quality.short_polygons, "count");
    out.add("via_violations", quality.via_violations, "count");
    out.add("vias", quality.vias, "count");
    out.add("wirelength", static_cast<double>(quality.wirelength), "edges");
    out.add("eco_p50_ms", eco_percentile(0.50), "ms");
    out.add("eco_p90_ms", eco_percentile(0.90), "ms");
  } else {
    print_stage_table(routes.front());
    add_route_layers(out, routes);
    add_serve_layers(out, ecos);
    out.add("trace.overhead_s", median(traced_op_s) - median(untraced_op_s),
            "s");
  }
  std::move(out).print(correct, tally.attempted, tally.failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Log::set_level(util::LogLevel::kWarn);
  try {
    const std::optional<Options> options = parse_args(argc, argv);
    if (!options) {
      std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 [--smoke] [--socket-dir DIR]\n";
      return 2;
    }
    return run(*options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
