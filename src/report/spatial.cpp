#include "report/spatial.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "eval/svg_writer.hpp"

namespace mebl::report {

using geom::Coord;
using geom::LayerId;
using geom::Orientation;
using netlist::NetId;

ViaDensitySummary ViaDensityMap::summary() const {
  ViaDensitySummary out;
  out.tiles_x = tiles_x;
  out.tiles_y = tiles_y;
  for (const std::int64_t v : vias) {
    out.vias += v;
    out.peak_tile_vias = std::max(out.peak_tile_vias, v);
  }
  for (const std::int64_t v : unfriendly_vias) out.unfriendly_vias += v;
  return out;
}

ViaDensityMap measure_via_density(const detail::GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  ViaDensityMap map;
  map.tiles_x = rg.tiles_x();
  map.tiles_y = rg.tiles_y();
  const std::size_t tiles =
      static_cast<std::size_t>(map.tiles_x) * map.tiles_y;
  map.vias.assign(tiles, 0);
  map.unfriendly_vias.assign(tiles, 0);

  // A via is a same-net adjacency across a layer boundary, counted once
  // toward the layer above (the eval::compute_metrics convention).
  for (LayerId layer = 0; layer + 1 < rg.num_layers(); ++layer) {
    const auto above = static_cast<LayerId>(layer + 1);
    grid.for_each_run(layer, [&](Coord y, Coord lo, Coord hi, NetId net) {
      const std::size_t row =
          static_cast<std::size_t>(rg.tile_of_y(y)) * map.tiles_x;
      for (Coord x = lo; x <= hi; ++x) {
        if (grid.owner({x, y, above}) != net) continue;
        const std::size_t t = row + rg.tile_of_x(x);
        ++map.vias[t];
        if (stitch.in_unfriendly_region(x)) ++map.unfriendly_vias[t];
      }
    });
  }
  return map;
}

std::vector<NetAudit> collect_net_audits(
    const detail::GridGraph& grid, const netlist::Netlist& netlist,
    const assign::RoutePlan& plan,
    const std::vector<netlist::Subnet>& subnets,
    const detail::DetailedResult& outcome) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  std::vector<NetAudit> audits(netlist.num_nets());
  for (std::size_t i = 0; i < audits.size(); ++i) {
    audits[i].net = static_cast<NetId>(i);
    audits[i].name = netlist.net(static_cast<NetId>(i)).name;
  }

  for (std::size_t i = 0; i < subnets.size(); ++i)
    if (i < outcome.subnet_nodes.size() && outcome.subnet_nodes[i].empty())
      audits[static_cast<std::size_t>(subnets[i].net)].routed = false;

  for (const assign::GlobalRun& run : plan.runs) {
    if (run.net < 0) continue;
    NetAudit& audit = audits[static_cast<std::size_t>(run.net)];
    audit.bad_ends += run.bad_ends;
    if (run.ripped) ++audit.ripped_runs;
  }

  for (LayerId layer = 0; layer < rg.num_layers(); ++layer) {
    const bool horizontal =
        layer >= 1 && rg.layer_dir(layer) == Orientation::kHorizontal;
    const bool vertical =
        layer >= 1 && rg.layer_dir(layer) == Orientation::kVertical;
    const auto above = static_cast<LayerId>(layer + 1);
    grid.for_each_run(layer, [&](Coord y, Coord lo, Coord hi, NetId net) {
      NetAudit& audit = audits[static_cast<std::size_t>(net)];
      for (Coord x = lo; x <= hi; ++x) {
        const bool on_line = stitch.is_stitch_column(x);
        // A horizontal wire crossing a line occupies the line column.
        if (horizontal && on_line) ++audit.stitch_crossings;
        if (vertical && stitch.in_escape_region(x)) ++audit.escape_nodes;
        // Vias toward the layer above, on line columns (via violations).
        if (on_line && above < rg.num_layers() &&
            grid.owner({x, y, above}) == net)
          ++audit.via_violations;
      }
    });
  }
  return audits;
}

namespace {

template <typename T, typename Format>
std::string csv_grid(int tiles_x, int tiles_y, const std::vector<T>& values,
                     Format format) {
  std::ostringstream out;
  for (int ty = tiles_y - 1; ty >= 0; --ty) {  // y grows upward
    for (int tx = 0; tx < tiles_x; ++tx) {
      if (tx > 0) out << ',';
      format(out, values[static_cast<std::size_t>(ty) * tiles_x + tx]);
    }
    out << '\n';
  }
  return out.str();
}

}  // namespace

std::string csv_heatmap(int tiles_x, int tiles_y,
                        const std::vector<double>& values) {
  return csv_grid(tiles_x, tiles_y, values, [](std::ostream& out, double v) {
    out << format_double(v);
  });
}

std::string csv_heatmap(int tiles_x, int tiles_y,
                        const std::vector<std::int64_t>& values) {
  return csv_grid(tiles_x, tiles_y, values,
                  [](std::ostream& out, std::int64_t v) { out << v; });
}

std::string svg_via_overlay(const detail::GridGraph& grid,
                            const ViaDensityMap& map,
                            double pixels_per_track) {
  const auto& rg = grid.routing_grid();
  eval::SvgOptions options;
  options.pixels_per_track = pixels_per_track;
  std::string svg = eval::render_svg(grid, options);

  std::int64_t peak = 1;
  for (const std::int64_t v : map.unfriendly_vias) peak = std::max(peak, v);

  std::ostringstream overlay;
  for (int ty = 0; ty < map.tiles_y; ++ty) {
    for (int tx = 0; tx < map.tiles_x; ++tx) {
      const std::int64_t v = map.unfriendly_at(tx, ty);
      if (v == 0) continue;
      const double opacity =
          0.15 + 0.45 * static_cast<double>(v) / static_cast<double>(peak);
      const auto x_span = rg.tile_x_span(tx);
      const auto y_span = rg.tile_y_span(ty);
      overlay << "<rect x='" << x_span.lo * pixels_per_track << "' y='"
              << (rg.height() - 1 - y_span.hi) * pixels_per_track
              << "' width='" << (x_span.length()) * pixels_per_track
              << "' height='" << (y_span.length()) * pixels_per_track
              << "' fill='red' fill-opacity='" << format_double(opacity)
              << "'><title>tile (" << tx << ',' << ty << "): " << v
              << " unfriendly vias</title></rect>\n";
    }
  }

  // Layer the heat rectangles over the rendered layout.
  const std::size_t close = svg.rfind("</svg>");
  if (close != std::string::npos) svg.insert(close, overlay.str());
  return svg;
}

bool write_heatmap_dir(const std::string& dir,
                       const detail::GridGraph& grid) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  const auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream out(dir + "/" + name);
    if (!out) return false;
    out << text;
    return out.good();
  };

  const eval::CongestionMap congestion = eval::measure_congestion(grid);
  const ViaDensityMap vias = measure_via_density(grid);
  const int tx = congestion.tiles_x;
  const int ty = congestion.tiles_y;
  return write("congestion_horizontal.csv",
               csv_heatmap(tx, ty, congestion.horizontal)) &&
         write("congestion_vertical.csv",
               csv_heatmap(tx, ty, congestion.vertical)) &&
         write("escape_use.csv", csv_heatmap(tx, ty, congestion.escape_use)) &&
         write("congestion_horizontal.svg",
               eval::svg_heatmap(congestion, /*vertical=*/false)) &&
         write("congestion_vertical.svg",
               eval::svg_heatmap(congestion, /*vertical=*/true)) &&
         write("via_density.csv", csv_heatmap(tx, ty, vias.vias)) &&
         write("unfriendly_vias.csv",
               csv_heatmap(tx, ty, vias.unfriendly_vias)) &&
         write("via_overlay.svg", svg_via_overlay(grid, vias));
}

}  // namespace mebl::report
