// BM_EcoReroute: incremental (ECO) reroute vs. full-route cost on S5378.
//
// Routes S5378 once through the resident pipeline, then measures ECO
// reroutes of growing net batches against the resident state — the number
// the serving layer's <25%-of-full-route acceptance gate reads. Emits a
// mebl.bench_report row (S5378, eco_reroute) plus one row per batch size,
// so `mebl_report diff` can gate the incremental path like any table.
//
// A last row (S5378, eco_steady) measures the steady state of a resident
// daemon design: one resident serves a fixed stream of 20 ECOs of 10 nets,
// so the repair memo (DESIGN.md §9) carries over from ECO to ECO. Its
// median eco_seconds is information only; the memo's skip count and the
// stream's final quality are deterministic and gated exactly.

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "serve/resident_design.hpp"
#include "telemetry/keys.hpp"
#include "util/rng.hpp"

namespace {

struct EcoSample {
  std::size_t batch = 0;
  std::size_t dirty = 0;
  double seconds = 0.0;
  bool fallback = false;
};

/// One measured configuration: full-route S5378, then ECO `batch` nets.
/// Each sample rebuilds the resident from scratch so every ECO hits the
/// same pre-ECO state (ECOs mutate the resident they run against).
EcoSample BM_EcoReroute(const mebl::bench_suite::BenchmarkSpec& spec,
                        int threads, std::size_t batch,
                        double* full_seconds_out) {
  using namespace mebl;
  auto circuit = bench_common::generate(spec);
  serve::ResidentDesign resident(
      netlist::Design{circuit.grid, std::move(circuit.netlist)},
      core::RouterConfig::stitch_aware().with_threads(threads));

  util::Timer timer;
  const serve::EcoOutcome full = resident.route_full();
  const double full_seconds = timer.seconds();
  if (!full.ok) {
    std::cerr << "[eco_reroute] full route failed: " << full.error << "\n";
    std::exit(1);
  }
  if (full_seconds_out != nullptr) *full_seconds_out = full_seconds;

  serve::EcoRequest request;
  request.nets =
      bench_common::routable_nets(resident.design().netlist, batch);
  const serve::EcoOutcome outcome = resident.eco(request);
  if (!outcome.ok) {
    std::cerr << "[eco_reroute] eco failed: " << outcome.error << "\n";
    std::exit(1);
  }
  return {request.nets.size(), outcome.dirty_subnets, outcome.seconds,
          outcome.fallback_full};
}

struct SteadySample {
  double median_seconds = 0.0;
  std::int64_t memo_skips = 0;
  mebl::eval::RouteMetrics final_metrics;
};

/// One resident, kSteadyEcos ECOs of kSteadyNets nets each, drawn from the
/// routable nets by a fixed seed.
SteadySample BM_EcoSteady(const mebl::bench_suite::BenchmarkSpec& spec,
                          int threads) {
  using namespace mebl;
  constexpr int kSteadyEcos = 20;
  constexpr std::size_t kSteadyNets = 10;
  auto circuit = bench_common::generate(spec);
  serve::ResidentDesign resident(
      netlist::Design{circuit.grid, std::move(circuit.netlist)},
      core::RouterConfig::stitch_aware().with_threads(threads));
  if (!resident.route_full().ok) {
    std::cerr << "[eco_reroute] steady full route failed\n";
    std::exit(1);
  }
  const auto candidates = bench_common::routable_nets(
      resident.design().netlist, resident.design().netlist.num_nets());
  util::Rng rng(20130602u);
  SteadySample sample;
  std::vector<double> seconds;
  for (int eco = 0; eco < kSteadyEcos; ++eco) {
    serve::EcoRequest request;
    while (request.nets.size() < kSteadyNets) {
      const auto last = static_cast<std::int64_t>(candidates.size()) - 1;
      const netlist::NetId net =
          candidates[static_cast<std::size_t>(rng.uniform_int(0, last))];
      if (std::find(request.nets.begin(), request.nets.end(), net) ==
          request.nets.end())
        request.nets.push_back(net);
    }
    const serve::EcoOutcome outcome = resident.eco(request);
    if (!outcome.ok) {
      std::cerr << "[eco_reroute] steady eco failed: " << outcome.error
                << "\n";
      std::exit(1);
    }
    seconds.push_back(outcome.seconds);
    namespace keys = telemetry::keys;
    sample.memo_skips += outcome.report.counters.value(keys::kMemoSpSkips) +
                         outcome.report.counters.value(keys::kMemoProbeSkips);
  }
  std::sort(seconds.begin(), seconds.end());
  sample.median_seconds = seconds[seconds.size() / 2];
  sample.final_metrics = resident.result().metrics;
  return sample;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mebl;
  bench_common::TelemetryScope telemetry_scope(argc, argv);
  bench_common::ReportScope report_scope("eco_reroute", argc, argv);
  bench_common::QuietLogs quiet;
  const int threads = bench_common::threads_from_args(argc, argv);

  const auto* spec = bench_suite::find_spec("S5378");
  if (spec == nullptr) {
    std::cerr << "[eco_reroute] no S5378 spec\n";
    return 1;
  }

  util::Table table("Batch (nets)", "Dirty subnets", "ECO CPU(s)",
                    "Full CPU(s)", "ECO/Full", "Fallback");

  const std::size_t batches[] = {1, 10, 50};
  double headline_ratio = 0.0;
  for (const std::size_t batch : batches) {
    double full_seconds = 0.0;
    const EcoSample sample =
        BM_EcoReroute(*spec, threads, batch, &full_seconds);
    const double ratio =
        full_seconds > 0.0 ? sample.seconds / full_seconds : 0.0;
    if (batch == 10) headline_ratio = ratio;

    table.add_row(std::to_string(sample.batch),
                  std::to_string(sample.dirty),
                  util::Table::fixed(sample.seconds, 3),
                  util::Table::fixed(full_seconds, 3),
                  util::Table::fixed(ratio, 3),
                  sample.fallback ? "yes" : "no");

    report::Json::Object metrics;
    metrics["batch_nets"] = static_cast<std::int64_t>(sample.batch);
    metrics["dirty_subnets"] = static_cast<std::int64_t>(sample.dirty);
    metrics["eco_seconds"] = sample.seconds;
    metrics["full_seconds"] = full_seconds;
    metrics["eco_over_full"] = ratio;
    report_scope.add(spec->name,
                     batch == 10 ? "eco_reroute"
                                 : "eco_reroute_b" + std::to_string(batch),
                     std::move(metrics));
  }

  const SteadySample steady = BM_EcoSteady(*spec, threads);
  {
    const auto& m = steady.final_metrics;
    report::Json::Object metrics;
    metrics["batch_nets"] = std::int64_t{10};
    metrics["ecos"] = std::int64_t{20};
    metrics["eco_seconds"] = steady.median_seconds;
    metrics["memo_skips"] = steady.memo_skips;
    metrics["final_short_polygons"] = std::int64_t{m.short_polygons};
    metrics["final_via_violations"] = std::int64_t{m.via_violations};
    metrics["final_vias"] = std::int64_t{m.vias};
    metrics["final_wirelength"] = m.wirelength;
    report_scope.add(spec->name, "eco_steady", std::move(metrics));
  }

  std::cout << table.str("BM_EcoReroute: incremental reroute vs. full route "
                         "(S5378)")
            << "Steady state (one resident, 20 ECOs x 10 nets): median ECO "
            << util::Table::fixed(steady.median_seconds, 3) << " s, "
            << steady.memo_skips << " repair-memo skips\n"
            << "\nServing-layer gate: the 10-net ECO must stay under 0.25x "
               "the full route (measured "
            << util::Table::fixed(headline_ratio, 3) << "x)\n";
  return headline_ratio < 0.25 ? 0 : 1;
}
