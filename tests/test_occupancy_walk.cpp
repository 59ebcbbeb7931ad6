// The occupancy walker (GridGraph::for_each_run) and everything built on it
// — short_polygon_ends, compute_metrics, estimate_yield, measure_congestion,
// measure_via_density, collect_net_audits — against plain row-major loops
// over every node, kept here as the reference. A seeded claim/release
// workload on a grid whose sides are not multiples of the 32-track block
// covers runs across block edges, blocks claimed and then fully released,
// runs ending in the last column, and wires and vias on stitch columns.
// Every comparison is exact, floating-point sums included.

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "eval/congestion.hpp"
#include "eval/metrics.hpp"
#include "eval/yield.hpp"
#include "report/spatial.hpp"
#include "util/rng.hpp"

namespace {

using namespace mebl;
using detail::GridGraph;
using geom::Coord;
using geom::LayerId;
using geom::Orientation;
using geom::Point3;
using netlist::NetId;

constexpr Coord kWidth = 150;   // 4 blocks + 22 columns
constexpr Coord kHeight = 101;  // 3 blocks + 5 rows
constexpr int kRoutingLayers = 4;
constexpr int kNets = 7;

grid::RoutingGrid make_grid() {
  return grid::RoutingGrid(kWidth, kHeight, kRoutingLayers, 20,
                           grid::StitchPlan(kWidth, 15));
}

// --- reference: one visit per node, row-major -----------------------------

struct WireRun {
  LayerId layer;
  Coord y, lo, hi;
  NetId net;
  friend bool operator==(const WireRun&, const WireRun&) = default;
};

std::vector<WireRun> reference_runs(const GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  std::vector<WireRun> runs;
  for (LayerId l = 0; l < rg.num_layers(); ++l)
    for (Coord y = 0; y < rg.height(); ++y)
      for (Coord x = 0; x < rg.width(); ++x) {
        const NetId net = grid.owner({x, y, l});
        if (net == -1) continue;
        if (x > 0 && grid.owner({x - 1, y, l}) == net)
          ++runs.back().hi;
        else
          runs.push_back({l, y, x, x, net});
      }
  return runs;
}

bool reference_has_via(const GridGraph& grid, Point3 p, NetId net) {
  const int layers = grid.routing_grid().num_layers();
  return (p.layer > 0 &&
          grid.owner({p.x, p.y, static_cast<LayerId>(p.layer - 1)}) == net) ||
         (p.layer + 1 < layers &&
          grid.owner({p.x, p.y, static_cast<LayerId>(p.layer + 1)}) == net);
}

std::vector<detail::ShortPolygonEnd> reference_sp_ends(const GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  std::vector<detail::ShortPolygonEnd> ends;
  for (const LayerId layer : rg.layers_with(Orientation::kHorizontal)) {
    for (Coord y = 0; y < rg.height(); ++y) {
      Coord x = 0;
      while (x < rg.width()) {
        const NetId net = grid.owner({x, y, layer});
        if (net == -1) {
          ++x;
          continue;
        }
        Coord end = x;
        while (end + 1 < rg.width() && grid.owner({end + 1, y, layer}) == net)
          ++end;
        if (end > x) {
          for (const Coord s : stitch.lines_cutting({x, end})) {
            if (s - x <= stitch.epsilon() &&
                reference_has_via(grid, {x, y, layer}, net))
              ends.push_back({{x, y, layer}, net, s - x});
            if (end - s <= stitch.epsilon() &&
                reference_has_via(grid, {end, y, layer}, net))
              ends.push_back({{end, y, layer}, net, end - s});
          }
        }
        x = end + 1;
      }
    }
  }
  return ends;
}

eval::RouteMetrics reference_metrics(const GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  eval::RouteMetrics metrics;
  for (LayerId layer = 0; layer < rg.num_layers(); ++layer) {
    for (Coord y = 0; y < rg.height(); ++y) {
      for (Coord x = 0; x < rg.width(); ++x) {
        const NetId net = grid.owner({x, y, layer});
        if (net == -1) continue;
        if (layer >= 1) {
          if (x + 1 < rg.width() && grid.owner({x + 1, y, layer}) == net)
            ++metrics.wirelength;
          if (y + 1 < rg.height() && grid.owner({x, y + 1, layer}) == net) {
            ++metrics.wirelength;
            if (stitch.is_stitch_column(x) &&
                rg.layer_dir(layer) == Orientation::kVertical)
              ++metrics.vertical_violations;
          }
        }
        if (layer + 1 < rg.num_layers() &&
            grid.owner({x, y, static_cast<LayerId>(layer + 1)}) == net) {
          ++metrics.vias;
          if (stitch.is_stitch_column(x)) ++metrics.via_violations;
        }
      }
    }
  }
  metrics.short_polygons = static_cast<int>(reference_sp_ends(grid).size());
  return metrics;
}

eval::YieldReport reference_yield(const GridGraph& grid,
                                  const eval::YieldModel& model) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  eval::YieldReport report;
  for (const detail::ShortPolygonEnd& sp : reference_sp_ends(grid)) {
    const int px = std::max(1, static_cast<int>(sp.piece) *
                                   model.pixels_per_track);
    eval::ShortPolygonRisk risk;
    risk.end = sp.end;
    risk.piece_tracks = sp.piece;
    risk.error_ratio =
        raster::short_polygon_experiment(
            px, px + 16 * model.pixels_per_track, model.wire_width_px)
            .error_ratio();
    risk.defect_prob =
        std::clamp(risk.error_ratio * model.error_ratio_to_defect, 0.0, 1.0);
    report.expected_defects += risk.defect_prob;
    report.short_polygons.push_back(risk);
  }
  for (const Coord line : stitch.lines())
    for (Coord y = 0; y < rg.height(); ++y)
      for (LayerId l = 0; l + 1 < rg.num_layers(); ++l) {
        const NetId net = grid.owner({line, y, l});
        if (net != -1 &&
            grid.owner({line, y, static_cast<LayerId>(l + 1)}) == net) {
          ++report.via_violations;
          report.expected_defects += model.via_violation_defect_prob;
        }
      }
  report.yield = std::exp(-report.expected_defects);
  return report;
}

eval::CongestionMap reference_congestion(const GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  eval::CongestionMap map;
  map.tiles_x = rg.tiles_x();
  map.tiles_y = rg.tiles_y();
  const std::size_t tiles = static_cast<std::size_t>(map.tiles_x) * map.tiles_y;
  map.horizontal.assign(tiles, 0.0);
  map.vertical.assign(tiles, 0.0);
  map.escape_use.assign(tiles, 0.0);
  std::vector<std::int64_t> h_used(tiles, 0), v_used(tiles, 0),
      esc_used(tiles, 0), esc_cap(tiles, 0);
  const int h_layers =
      static_cast<int>(rg.layers_with(Orientation::kHorizontal).size());
  const int v_layers =
      static_cast<int>(rg.layers_with(Orientation::kVertical).size());
  for (LayerId l = 1; l < rg.num_layers(); ++l) {
    const bool horizontal = rg.layer_dir(l) == Orientation::kHorizontal;
    for (Coord y = 0; y < rg.height(); ++y) {
      for (Coord x = 0; x < rg.width(); ++x) {
        const std::size_t t =
            static_cast<std::size_t>(rg.tile_of_y(y)) * map.tiles_x +
            rg.tile_of_x(x);
        const bool used = grid.owner({x, y, l}) != -1;
        if (!horizontal && stitch.in_escape_region(x)) {
          ++esc_cap[t];
          if (used) ++esc_used[t];
        }
        if (!used) continue;
        ++(horizontal ? h_used : v_used)[t];
      }
    }
  }
  for (int ty = 0; ty < map.tiles_y; ++ty) {
    for (int tx = 0; tx < map.tiles_x; ++tx) {
      const std::size_t t = static_cast<std::size_t>(ty) * map.tiles_x + tx;
      const double area = static_cast<double>(rg.tile_x_span(tx).length()) *
                          rg.tile_y_span(ty).length();
      map.horizontal[t] = static_cast<double>(h_used[t]) / (area * h_layers);
      map.vertical[t] = static_cast<double>(v_used[t]) / (area * v_layers);
      if (esc_cap[t] > 0)
        map.escape_use[t] =
            static_cast<double>(esc_used[t]) / static_cast<double>(esc_cap[t]);
    }
  }
  return map;
}

report::ViaDensityMap reference_via_density(const GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  report::ViaDensityMap map;
  map.tiles_x = rg.tiles_x();
  map.tiles_y = rg.tiles_y();
  const std::size_t tiles = static_cast<std::size_t>(map.tiles_x) * map.tiles_y;
  map.vias.assign(tiles, 0);
  map.unfriendly_vias.assign(tiles, 0);
  for (LayerId layer = 0; layer + 1 < rg.num_layers(); ++layer)
    for (Coord y = 0; y < rg.height(); ++y)
      for (Coord x = 0; x < rg.width(); ++x) {
        const NetId net = grid.owner({x, y, layer});
        if (net == -1 ||
            grid.owner({x, y, static_cast<LayerId>(layer + 1)}) != net)
          continue;
        const std::size_t t =
            static_cast<std::size_t>(rg.tile_of_y(y)) * map.tiles_x +
            rg.tile_of_x(x);
        ++map.vias[t];
        if (rg.stitch().in_unfriendly_region(x)) ++map.unfriendly_vias[t];
      }
  return map;
}

/// (stitch_crossings, escape_nodes, via_violations) per net.
using AuditCounts = std::tuple<std::int64_t, std::int64_t, int>;

std::vector<AuditCounts> reference_audits(const GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  std::vector<AuditCounts> audits(kNets);
  for (LayerId layer = 1; layer < rg.num_layers(); ++layer) {
    const bool horizontal = rg.layer_dir(layer) == Orientation::kHorizontal;
    for (Coord y = 0; y < rg.height(); ++y)
      for (Coord x = 0; x < rg.width(); ++x) {
        const NetId net = grid.owner({x, y, layer});
        if (net == -1) continue;
        auto& audit = audits[static_cast<std::size_t>(net)];
        if (horizontal && stitch.is_stitch_column(x)) ++std::get<0>(audit);
        if (!horizontal && stitch.in_escape_region(x)) ++std::get<1>(audit);
      }
  }
  for (LayerId layer = 0; layer + 1 < rg.num_layers(); ++layer)
    for (Coord y = 0; y < rg.height(); ++y)
      for (Coord x = 0; x < rg.width(); ++x) {
        if (!stitch.is_stitch_column(x)) continue;
        const NetId net = grid.owner({x, y, layer});
        if (net != -1 &&
            grid.owner({x, y, static_cast<LayerId>(layer + 1)}) == net)
          ++std::get<2>(audits[static_cast<std::size_t>(net)]);
      }
  return audits;
}

// --- the workload ----------------------------------------------------------

void claim_free(GridGraph& grid, Point3 p, NetId net) {
  if (grid.routing_grid().in_bounds(p) && grid.is_free_or(p, net))
    grid.claim(p, net);
}

/// One random step: a horizontal or vertical wire, a via stack (often on a
/// stitch column), or the release of a rectangle on one layer.
void random_step(GridGraph& grid, util::Rng& rng) {
  const auto& rg = grid.routing_grid();
  const auto& lines = rg.stitch().lines();
  const auto net = static_cast<NetId>(rng.uniform_int(0, kNets - 1));
  const auto layer =
      static_cast<LayerId>(rng.uniform_int(0, rg.num_layers() - 1));
  const auto x = static_cast<Coord>(
      rng.chance(0.3) ? lines[static_cast<std::size_t>(
                            rng.uniform_int(0, lines.size() - 1))] +
                            rng.uniform_int(-1, 1)
                      : rng.uniform_int(0, kWidth - 1));
  const auto y = static_cast<Coord>(rng.uniform_int(0, kHeight - 1));
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // horizontal wire, sometimes to the last column
      const Coord hi = rng.chance(0.2)
                           ? kWidth - 1
                           : std::min<Coord>(kWidth - 1,
                                             x + rng.uniform_int(0, 60));
      for (Coord xi = x; xi <= hi; ++xi) claim_free(grid, {xi, y, layer}, net);
      break;
    }
    case 1: {  // vertical wire
      const Coord hi =
          std::min<Coord>(kHeight - 1, y + rng.uniform_int(1, 40));
      for (Coord yi = y; yi <= hi; ++yi) claim_free(grid, {x, yi, layer}, net);
      break;
    }
    case 2: {  // via stack
      const auto top = static_cast<LayerId>(
          std::min<int>(rg.num_layers() - 1, layer + rng.uniform_int(1, 2)));
      for (LayerId l = layer; l <= top; ++l) claim_free(grid, {x, y, l}, net);
      break;
    }
    default: {  // rip up a rectangle
      const Coord x1 = std::min<Coord>(kWidth - 1, x + rng.uniform_int(0, 40));
      const Coord y1 = std::min<Coord>(kHeight - 1, y + rng.uniform_int(0, 40));
      for (Coord yi = y; yi <= y1; ++yi)
        for (Coord xi = x; xi <= x1; ++xi) grid.release({xi, yi, layer});
      break;
    }
  }
}

/// Stitch hazards by construction, for every line: a wire that starts one
/// track left of it with a landing via and one that ends one track right of
/// it with a landing via (short polygons), and a vertical wire and a via on
/// the line column itself.
void add_stitch_hazards(GridGraph& grid, Coord y) {
  const auto& rg = grid.routing_grid();
  for (const Coord s : rg.stitch().lines()) {
    for (Coord x = s - 1; x <= s + 5; ++x) claim_free(grid, {x, y, 1}, 1);
    claim_free(grid, {s - 1, y, 2}, 1);
    for (Coord x = s - 5; x <= s + 1; ++x) claim_free(grid, {x, y + 2, 3}, 2);
    claim_free(grid, {s + 1, y + 2, 2}, 2);
    for (Coord yi = y + 4; yi <= y + 8; ++yi) claim_free(grid, {s, yi, 2}, 3);
    claim_free(grid, {s, y + 8, 3}, 3);
  }
}

void expect_walk_matches_reference(const GridGraph& grid) {
  const auto& rg = grid.routing_grid();

  std::vector<WireRun> runs;
  for (LayerId l = 0; l < rg.num_layers(); ++l)
    grid.for_each_run(l, [&](Coord y, Coord lo, Coord hi, NetId net) {
      runs.push_back({l, y, lo, hi, net});
    });
  EXPECT_EQ(runs, reference_runs(grid));

  const auto ends = detail::short_polygon_ends(grid);
  const auto ref_ends = reference_sp_ends(grid);
  ASSERT_EQ(ends.size(), ref_ends.size());
  for (std::size_t i = 0; i < ends.size(); ++i) {
    EXPECT_EQ(ends[i].end, ref_ends[i].end);
    EXPECT_EQ(ends[i].net, ref_ends[i].net);
    EXPECT_EQ(ends[i].piece, ref_ends[i].piece);
  }

  netlist::Netlist nl;
  for (int n = 0; n < kNets; ++n) nl.add_net("n" + std::to_string(n));
  detail::DetailedResult outcome;
  const eval::RouteMetrics metrics =
      eval::compute_metrics(grid, nl, {}, outcome);
  const eval::RouteMetrics ref = reference_metrics(grid);
  EXPECT_EQ(metrics.wirelength, ref.wirelength);
  EXPECT_EQ(metrics.vias, ref.vias);
  EXPECT_EQ(metrics.via_violations, ref.via_violations);
  EXPECT_EQ(metrics.vertical_violations, ref.vertical_violations);
  EXPECT_EQ(metrics.short_polygons, ref.short_polygons);

  const eval::YieldModel model;
  const eval::YieldReport yield = eval::estimate_yield(grid, model);
  const eval::YieldReport ref_yield = reference_yield(grid, model);
  EXPECT_EQ(yield.via_violations, ref_yield.via_violations);
  EXPECT_EQ(yield.expected_defects, ref_yield.expected_defects);  // not NEAR
  EXPECT_EQ(yield.yield, ref_yield.yield);
  ASSERT_EQ(yield.short_polygons.size(), ref_yield.short_polygons.size());
  for (std::size_t i = 0; i < yield.short_polygons.size(); ++i) {
    EXPECT_EQ(yield.short_polygons[i].end, ref_yield.short_polygons[i].end);
    EXPECT_EQ(yield.short_polygons[i].piece_tracks,
              ref_yield.short_polygons[i].piece_tracks);
    EXPECT_EQ(yield.short_polygons[i].defect_prob,
              ref_yield.short_polygons[i].defect_prob);
  }

  const eval::CongestionMap congestion = eval::measure_congestion(grid);
  const eval::CongestionMap ref_congestion = reference_congestion(grid);
  EXPECT_EQ(congestion.horizontal, ref_congestion.horizontal);
  EXPECT_EQ(congestion.vertical, ref_congestion.vertical);
  EXPECT_EQ(congestion.escape_use, ref_congestion.escape_use);

  const report::ViaDensityMap vias = report::measure_via_density(grid);
  const report::ViaDensityMap ref_vias = reference_via_density(grid);
  EXPECT_EQ(vias.vias, ref_vias.vias);
  EXPECT_EQ(vias.unfriendly_vias, ref_vias.unfriendly_vias);

  const auto audits = report::collect_net_audits(grid, nl, {}, {}, outcome);
  const auto ref_audits = reference_audits(grid);
  ASSERT_EQ(audits.size(), ref_audits.size());
  for (std::size_t n = 0; n < audits.size(); ++n)
    EXPECT_EQ(AuditCounts(audits[n].stitch_crossings, audits[n].escape_nodes,
                          audits[n].via_violations),
              ref_audits[n])
        << "net " << n;
}

TEST(OccupancyWalk, EmptyGridYieldsNothing) {
  const auto rg = make_grid();
  const GridGraph grid(rg);
  expect_walk_matches_reference(grid);
  int runs = 0;
  grid.for_each_run(1, [&](Coord, Coord, Coord, NetId) { ++runs; });
  EXPECT_EQ(runs, 0);
}

TEST(OccupancyWalk, RunsCrossBlockEdgesAndEndInTheLastColumn) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  // One run across three block edges to the last column, a 1-node run at
  // the last column, and a run of another net abutting it at x = 64.
  for (Coord x = 20; x < kWidth; ++x) grid.claim({x, 40, 1}, 3);
  grid.claim({kWidth - 1, 100, 1}, 4);
  for (Coord x = 31; x <= 63; ++x) grid.claim({x, 41, 1}, 5);
  for (Coord x = 64; x <= 70; ++x) grid.claim({x, 41, 1}, 6);
  std::vector<WireRun> runs;
  grid.for_each_run(1, [&](Coord y, Coord lo, Coord hi, NetId net) {
    runs.push_back({1, y, lo, hi, net});
  });
  const std::vector<WireRun> expected{{1, 40, 20, kWidth - 1, 3},
                                      {1, 41, 31, 63, 5},
                                      {1, 41, 64, 70, 6},
                                      {1, 100, kWidth - 1, kWidth - 1, 4}};
  EXPECT_EQ(runs, expected);
  expect_walk_matches_reference(grid);
}

TEST(OccupancyWalk, ReleasedBlocksStayTouchedAndReadFree) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  // Fill block (1, 1) of layer 2 and release it again; then claim a run
  // that starts in the released block and one in the block after it.
  for (Coord y = 32; y < 64; ++y)
    for (Coord x = 32; x < 64; ++x) grid.claim({x, y, 2}, 0);
  const std::size_t touched = grid.owner_blocks_touched();
  for (Coord y = 32; y < 64; ++y)
    for (Coord x = 32; x < 64; ++x) grid.release({x, y, 2});
  EXPECT_EQ(grid.owner_blocks_touched(), touched);
  EXPECT_EQ(grid.occupied_nodes(), 0);
  expect_walk_matches_reference(grid);
  for (Coord x = 60; x <= 70; ++x) grid.claim({x, 50, 2}, 1);
  grid.claim({80, 50, 2}, 1);
  expect_walk_matches_reference(grid);
}

TEST(OccupancyWalk, SeededClaimReleaseWorkloadMatchesRowMajorLoops) {
  const auto rg = make_grid();
  GridGraph grid(rg);
  util::Rng rng(20130602u);
  add_stitch_hazards(grid, 7);
  add_stitch_hazards(grid, 70);
  for (int checkpoint = 0; checkpoint < 6; ++checkpoint) {
    for (int step = 0; step < 60; ++step) random_step(grid, rng);
    SCOPED_TRACE(checkpoint);
    expect_walk_matches_reference(grid);
  }
  // The workload reached every case the walker must get right.
  const eval::RouteMetrics ref = reference_metrics(grid);
  EXPECT_GT(ref.short_polygons, 0);
  EXPECT_GT(ref.via_violations, 0);
  EXPECT_GT(ref.vertical_violations, 0);
  bool last_column = false;
  for (LayerId l = 0; l < rg.num_layers(); ++l)
    for (Coord y = 0; y < kHeight; ++y)
      last_column = last_column || !grid.is_free({kWidth - 1, y, l});
  EXPECT_TRUE(last_column);
}

}  // namespace
