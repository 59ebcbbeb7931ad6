// Assignment-stage parallelism (DESIGN.md: "Assignment-stage parallelism &
// the Solver API"): panel-parallel assign::assign_panels and the parallel
// branch-and-bound behind it keep the routed assignment bit-identical for
// every thread count, graph-heuristic warm starts never change the
// assignment cost, and a node-budgeted ILP run is a pure function of the
// input — including its search-effort counters — at any pool size.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assign/track_assign.hpp"
#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "report/report.hpp"
#include "telemetry/keys.hpp"
#include "util/rng.hpp"

namespace {

using namespace mebl;
using geom::Coord;

/// Everything layer/track assignment decided, plus the downstream result it
/// produced: per-run assignment fields, headline metrics, canonical report
/// bytes, and the (budget-mode deterministic) ILP effort counters.
struct AssignFingerprint {
  std::vector<geom::LayerId> layers;
  std::vector<std::vector<std::pair<geom::Interval, geom::Coord>>> pieces;
  std::vector<bool> ripped;
  std::vector<int> bad_ends;
  eval::RouteMetrics metrics;
  std::string canonical_report;
  std::int64_t ilp_nodes = 0;
  std::int64_t ilp_budget_hits = 0;
  bool ilp_budget_exceeded = false;
};

AssignFingerprint route_circuit(const bench_suite::GeneratedCircuit& circuit,
                                const core::RouterConfig& config) {
  core::StitchAwareRouter router(circuit.grid, circuit.netlist, config);
  const auto result = router.run();

  AssignFingerprint fp;
  for (const auto& run : result.plan.runs) {
    fp.layers.push_back(run.layer);
    fp.pieces.push_back(run.pieces);
    fp.ripped.push_back(run.ripped);
    fp.bad_ends.push_back(run.bad_ends);
  }
  fp.metrics = result.metrics;
  report::WriteOptions options;
  options.include_timing = false;
  fp.canonical_report = report::serialize(
      report::build_run_report(result, circuit.grid, circuit.netlist),
      options);
  fp.ilp_nodes = result.stats().value(telemetry::keys::kTrackIlpNodes);
  fp.ilp_budget_hits =
      result.stats().value(telemetry::keys::kTrackIlpBudgetHits);
  fp.ilp_budget_exceeded = result.ilp_budget_exceeded;
  return fp;
}

void expect_identical(const AssignFingerprint& a, const AssignFingerprint& b,
                      const std::string& what) {
  EXPECT_EQ(a.layers, b.layers) << what;
  EXPECT_EQ(a.pieces, b.pieces) << what;
  EXPECT_EQ(a.ripped, b.ripped) << what;
  EXPECT_EQ(a.bad_ends, b.bad_ends) << what;
  EXPECT_EQ(a.metrics.wirelength, b.metrics.wirelength) << what;
  EXPECT_EQ(a.metrics.vias, b.metrics.vias) << what;
  EXPECT_EQ(a.metrics.short_polygons, b.metrics.short_polygons) << what;
  EXPECT_EQ(a.metrics.routed_nets, b.metrics.routed_nets) << what;
  EXPECT_EQ(a.canonical_report, b.canonical_report) << what;
}

bench_suite::GeneratedCircuit make_circuit(const char* name) {
  const auto* spec = bench_suite::find_spec(name);
  EXPECT_NE(spec, nullptr);
  return bench_suite::generate_circuit(*spec, {}, 20130602u);
}

class AssignParallelDeterminism : public ::testing::TestWithParam<const char*> {
};

// Node-budgeted ILP track assignment through assign::assign_panels
// at --threads 1 and 8: per-run layer + pieces + ripped + bad_ends, the
// headline metrics, and the canonical report bytes must all be identical.
TEST_P(AssignParallelDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto circuit = make_circuit(GetParam());
  const auto base = core::RouterConfig::stitch_aware()
                        .with_track_algorithm(core::TrackAlgorithm::kIlp)
                        .with_ilp_node_budget(512);

  const AssignFingerprint one =
      route_circuit(circuit, core::RouterConfig(base).with_threads(1));
  const AssignFingerprint eight =
      route_circuit(circuit, core::RouterConfig(base).with_threads(8));
  expect_identical(one, eight, std::string(GetParam()) + " threads=8");
  // Budget mode keeps even the search-effort counters thread-invariant.
  EXPECT_EQ(one.ilp_nodes, eight.ilp_nodes);
  EXPECT_EQ(one.ilp_budget_hits, eight.ilp_budget_hits);
  EXPECT_EQ(one.ilp_budget_exceeded, eight.ilp_budget_exceeded);
}

INSTANTIATE_TEST_SUITE_P(Circuits, AssignParallelDeterminism,
                         ::testing::Values("S5378", "S9234"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

// A node budget small enough to truncate nearly every panel is still fully
// deterministic, and the truncation is actually observed (budget hits > 0,
// run flagged for the Table VII NA convention).
TEST(AssignNodeBudget, TruncatedSearchIsDeterministic) {
  const auto circuit = make_circuit("S5378");
  const auto base = core::RouterConfig::stitch_aware()
                        .with_track_algorithm(core::TrackAlgorithm::kIlp)
                        .with_ilp_node_budget(64);

  const AssignFingerprint one =
      route_circuit(circuit, core::RouterConfig(base).with_threads(1));
  const AssignFingerprint eight =
      route_circuit(circuit, core::RouterConfig(base).with_threads(8));

  expect_identical(one, eight, "budget=64");
  EXPECT_EQ(one.ilp_nodes, eight.ilp_nodes);
  EXPECT_EQ(one.ilp_budget_hits, eight.ilp_budget_hits);
  EXPECT_EQ(one.ilp_budget_exceeded, eight.ilp_budget_exceeded);
  // 64 nodes is far below what S5378's dense panels need, so at least one
  // panel must report a truncated solve.
  EXPECT_GT(one.ilp_budget_hits, 0);
}

// Warm starting a panel ILP from the graph heuristic cannot change the
// assignment cost: over a sweep of random panel instances, whenever both
// the cold and the warm solve prove optimality they reach the same bad-end
// count, and across the sweep the heuristic incumbent must cut the total
// node count (the reason the knob exists). Per-instance node counts are not
// individually compared — the warm start also reorders branching via its
// hint, which can locally lose.
TEST(AssignWarmStart, MatchesColdStartCostOnRandomPanels) {
  const grid::StitchPlan stitch(90, 15, 1);
  util::Rng rng(20130602u);

  int optimal_pairs = 0;
  std::int64_t cold_nodes = 0;
  std::int64_t warm_nodes = 0;
  for (int round = 0; round < 25; ++round) {
    assign::TrackAssignInstance instance;
    instance.x_span = {30, 44};
    instance.stitch = &stitch;
    const int n = static_cast<int>(rng.uniform_int(3, 8));
    for (int i = 0; i < n; ++i) {
      const auto lo = static_cast<Coord>(rng.uniform_int(0, 5));
      const auto hi = static_cast<Coord>(rng.uniform_int(lo, 7));
      instance.segments.push_back({static_cast<std::size_t>(i), {lo, hi},
                                   static_cast<int>(rng.uniform_int(-1, 1)),
                                   static_cast<int>(rng.uniform_int(-1, 1)),
                                   static_cast<netlist::NetId>(i)});
    }

    assign::IlpTrackOptions cold_options;
    cold_options.node_budget = 100'000;
    assign::IlpTrackOptions warm_options = cold_options;
    warm_options.warm_start = true;

    const auto cold = assign::track_assign_ilp(instance, cold_options);
    const auto warm = assign::track_assign_ilp(instance, warm_options);
    cold_nodes += cold.ilp_nodes;
    warm_nodes += warm.ilp_nodes;
    EXPECT_EQ(warm.solved, cold.solved) << "round " << round;
    if (cold.optimal && warm.optimal) {
      ++optimal_pairs;
      EXPECT_EQ(warm.total_bad_ends, cold.total_bad_ends)
          << "round " << round;
    }
  }
  // The sweep must actually compare optimal solves, and the warm starts must
  // save work overall, or the knob is dead weight.
  EXPECT_GT(optimal_pairs, 12);
  EXPECT_LT(warm_nodes, cold_nodes);
}

}  // namespace
