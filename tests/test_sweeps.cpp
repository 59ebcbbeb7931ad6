// Parameterized invariant sweeps over the stitch-plan geometry, the
// capacity model, the per-stage algorithms, and the end-to-end router —
// the property net that catches regressions an example-based test misses.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <unordered_set>

#include "assign/track_assign.hpp"
#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "util/rng.hpp"

namespace mebl {
namespace {

// ---------------------------------------------------------------------------
// Stitch-plan geometry invariants over (pitch, epsilon).
// ---------------------------------------------------------------------------

struct PlanParam {
  geom::Coord pitch;
  geom::Coord epsilon;
};

class StitchPlanSweep : public ::testing::TestWithParam<PlanParam> {};

TEST_P(StitchPlanSweep, GeometryInvariants) {
  const auto [pitch, epsilon] = GetParam();
  constexpr geom::Coord kWidth = 120;
  const grid::StitchPlan plan(kWidth, pitch, epsilon);

  // Lines sit strictly inside the layout at pitch multiples.
  for (const auto line : plan.lines()) {
    EXPECT_GT(line, 0);
    EXPECT_LT(line, kWidth);
    EXPECT_EQ(line % pitch, 0);
  }
  // free tracks + line count == width over the full span.
  EXPECT_EQ(plan.free_tracks({0, kWidth - 1}) +
                static_cast<geom::Coord>(plan.lines().size()),
            kWidth);
  // Line-end capacity never exceeds free-track capacity.
  for (geom::Coord lo = 0; lo + 29 < kWidth; lo += 30)
    EXPECT_LE(plan.line_end_capacity({lo, lo + 29}),
              plan.free_tracks({lo, lo + 29}));
  // Unfriendly region contains every line column and is symmetric.
  for (const auto line : plan.lines()) {
    EXPECT_TRUE(plan.in_unfriendly_region(line));
    for (geom::Coord d = 1; d <= epsilon; ++d) {
      if (line - d >= 0) {
        EXPECT_TRUE(plan.in_unfriendly_region(line - d));
      }
      if (line + d < kWidth) {
        EXPECT_TRUE(plan.in_unfriendly_region(line + d));
      }
    }
    if (line - epsilon - 1 >= 0 &&
        plan.distance_to_line(line - epsilon - 1) > epsilon) {
      EXPECT_FALSE(plan.in_unfriendly_region(line - epsilon - 1));
    }
  }
  // distance_to_line is 1-Lipschitz in x.
  for (geom::Coord x = 1; x < kWidth; ++x)
    EXPECT_LE(std::abs(plan.distance_to_line(x) - plan.distance_to_line(x - 1)),
              1);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, StitchPlanSweep,
    ::testing::Values(PlanParam{15, 1}, PlanParam{15, 2}, PlanParam{10, 1},
                      PlanParam{20, 3}, PlanParam{7, 0}, PlanParam{40, 2}),
    [](const auto& info) {
      std::ostringstream name;
      name << "pitch" << info.param.pitch << "_eps" << info.param.epsilon;
      return name.str();
    });

// ---------------------------------------------------------------------------
// Track assignment cross-validation: on instances both solve, the exact ILP
// never leaves more bad ends than the heuristic, and both stay conflict-free.
// ---------------------------------------------------------------------------

class TrackCrossSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrackCrossSweep, IlpNeverWorseThanGraph) {
  util::Rng rng(GetParam());
  const grid::StitchPlan stitch(120, 15, 1);
  for (int round = 0; round < 6; ++round) {
    assign::TrackAssignInstance instance;
    instance.x_span = {30, 44};
    instance.stitch = &stitch;
    const int n = static_cast<int>(rng.uniform_int(2, 5));
    for (int i = 0; i < n; ++i) {
      const auto lo = static_cast<geom::Coord>(rng.uniform_int(0, 4));
      instance.segments.push_back(
          {static_cast<std::size_t>(i),
           {lo, lo + static_cast<geom::Coord>(rng.uniform_int(0, 4))},
           static_cast<int>(rng.uniform_int(-1, 1)),
           static_cast<int>(rng.uniform_int(-1, 1)),
           static_cast<netlist::NetId>(i)});
    }
    const auto graph = assign::track_assign_graph(instance);
    const auto ilp = assign::track_assign_ilp(instance);
    if (!ilp.solved || !ilp.optimal || graph.total_ripped > 0) continue;
    EXPECT_LE(ilp.total_bad_ends, graph.total_bad_ends)
        << "seed " << GetParam() << " round " << round;
    // Bad-end counts agree with an independent recount for both.
    for (const auto* result : {&graph, &ilp}) {
      int recount = 0;
      for (std::size_t i = 0; i < instance.segments.size(); ++i)
        recount += assign::count_bad_ends(instance.segments[i],
                                          result->tracks[i], stitch);
      EXPECT_EQ(result->total_bad_ends, recount);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrackCrossSweep,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// End-to-end invariants across stitch geometries (pitch/epsilon variations
// beyond the paper's defaults, including a stitch-free control).
// ---------------------------------------------------------------------------

struct FlowParam {
  geom::Coord pitch;  // 0 = no stitch lines at all
  geom::Coord epsilon;
  int layers;
};

class FlowSweep : public ::testing::TestWithParam<FlowParam> {};

TEST_P(FlowSweep, HardConstraintsAcrossGeometries) {
  const auto param = GetParam();
  constexpr geom::Coord kSize = 120;
  const auto plan = param.pitch > 0
                        ? grid::StitchPlan(kSize, param.pitch, param.epsilon)
                        : grid::StitchPlan::none(kSize);
  const grid::RoutingGrid rg(kSize, kSize, param.layers, 30, plan);

  // Deterministic netlist over this grid.
  util::Rng rng(13 + param.pitch + param.layers);
  netlist::Netlist nl;
  std::unordered_set<geom::Point> used;
  for (int n = 0; n < 60; ++n) {
    const auto id = nl.add_net("n" + std::to_string(n));
    for (int p = 0; p < 3; ++p) {
      geom::Point pos;
      do {
        pos = {static_cast<geom::Coord>(rng.uniform_int(0, kSize - 1)),
               static_cast<geom::Coord>(rng.uniform_int(0, kSize - 1))};
      } while (!used.insert(pos).second);
      nl.add_pin(id, pos);
    }
  }

  core::StitchAwareRouter router(rg, nl);
  const auto result = router.run();

  EXPECT_GT(result.metrics.routability_pct(), 90.0);
  EXPECT_EQ(result.metrics.vertical_violations, 0);
  if (param.pitch == 0) {
    // No stitch lines: by definition no stitch-induced violations exist.
    EXPECT_EQ(result.metrics.short_polygons, 0);
    EXPECT_EQ(result.metrics.via_violations, 0);
  }
  EXPECT_EQ(static_cast<std::size_t>(result.metrics.short_polygons),
            detail::short_polygon_ends(*result.grid).size());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, FlowSweep,
    ::testing::Values(FlowParam{15, 1, 3}, FlowParam{15, 2, 3},
                      FlowParam{10, 1, 4}, FlowParam{20, 1, 6},
                      FlowParam{0, 1, 3}, FlowParam{8, 1, 3}),
    [](const auto& info) {
      std::ostringstream name;
      name << "pitch" << info.param.pitch << "_eps" << info.param.epsilon
           << "_L" << info.param.layers;
      return name.str();
    });

// ---------------------------------------------------------------------------
// Global-router demand bookkeeping: committed demands must equal an
// independent recount from the returned paths, across seeds.
// ---------------------------------------------------------------------------

class GlobalDemandSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobalDemandSweep, DemandsMatchRecount) {
  const grid::RoutingGrid rg(150, 150, 3, 30, grid::StitchPlan(150, 15));
  util::Rng rng(GetParam());
  std::vector<netlist::Subnet> subnets;
  for (int i = 0; i < 80; ++i)
    subnets.push_back(
        {i,
         {static_cast<geom::Coord>(rng.uniform_int(0, 149)),
          static_cast<geom::Coord>(rng.uniform_int(0, 149))},
         {static_cast<geom::Coord>(rng.uniform_int(0, 149)),
          static_cast<geom::Coord>(rng.uniform_int(0, 149))}});
  global::GlobalRouter router(rg);
  const auto result = router.route(subnets);

  std::map<std::tuple<char, int, int>, int> expected;
  for (const auto& path : result.paths) {
    ASSERT_FALSE(path.tiles.empty());
    for (std::size_t i = 0; i + 1 < path.tiles.size(); ++i) {
      const auto a = path.tiles[i];
      const auto b = path.tiles[i + 1];
      ASSERT_EQ(std::abs(a.tx - b.tx) + std::abs(a.ty - b.ty), 1)
          << "non-contiguous path";
      if (a.ty == b.ty)
        ++expected[{'h', std::min(a.tx, b.tx), a.ty}];
      else
        ++expected[{'v', a.tx, std::min(a.ty, b.ty)}];
    }
  }
  const auto& graph = router.graph();
  for (int ty = 0; ty < graph.tiles_y(); ++ty) {
    for (int tx = 0; tx + 1 < graph.tiles_x(); ++tx) {
      const auto it = expected.find({'h', tx, ty});
      EXPECT_EQ(graph.h_demand(tx, ty), it == expected.end() ? 0 : it->second);
    }
  }
  for (int ty = 0; ty + 1 < graph.tiles_y(); ++ty) {
    for (int tx = 0; tx < graph.tiles_x(); ++tx) {
      const auto it = expected.find({'v', tx, ty});
      EXPECT_EQ(graph.v_demand(tx, ty), it == expected.end() ? 0 : it->second);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobalDemandSweep,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace mebl
