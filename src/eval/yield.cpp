#include "eval/yield.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace mebl::eval {

using geom::Coord;
using geom::LayerId;
using netlist::NetId;

YieldReport estimate_yield(const detail::GridGraph& grid,
                           const YieldModel& model) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  YieldReport report;

  // Memoize the rasterization curve per piece length (in pixels).
  std::map<int, double> error_ratio_of_length;
  const auto error_ratio = [&](Coord piece_tracks) {
    const int px = std::max(1, static_cast<int>(piece_tracks) *
                                   model.pixels_per_track);
    const auto it = error_ratio_of_length.find(px);
    if (it != error_ratio_of_length.end()) return it->second;
    const auto defect = raster::short_polygon_experiment(
        px, /*length_px=*/px + 16 * model.pixels_per_track,
        model.wire_width_px);
    const double ratio = defect.error_ratio();
    error_ratio_of_length.emplace(px, ratio);
    return ratio;
  };

  // Short polygons with their piece lengths.
  for (const detail::ShortPolygonEnd& sp : detail::short_polygon_ends(grid)) {
    ShortPolygonRisk risk;
    risk.end = sp.end;
    risk.piece_tracks = sp.piece;
    risk.error_ratio = error_ratio(sp.piece);
    risk.defect_prob =
        std::clamp(risk.error_ratio * model.error_ratio_to_defect, 0.0, 1.0);
    report.expected_defects += risk.defect_prob;
    report.short_polygons.push_back(risk);
  }

  // Via violations (vias on line columns).
  for (LayerId l = 0; l + 1 < rg.num_layers(); ++l) {
    const auto above = static_cast<LayerId>(l + 1);
    grid.for_each_run(l, [&](Coord y, Coord lo, Coord hi, NetId net) {
      for (Coord x = lo; x <= hi; ++x) {
        if (stitch.is_stitch_column(x) && grid.owner({x, y, above}) == net) {
          ++report.via_violations;
          report.expected_defects += model.via_violation_defect_prob;
        }
      }
    });
  }

  report.yield = std::exp(-report.expected_defects);
  return report;
}

}  // namespace mebl::eval
