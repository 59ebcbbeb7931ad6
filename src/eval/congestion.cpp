#include "eval/congestion.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace mebl::eval {

using geom::Coord;
using geom::LayerId;
using geom::Orientation;

double CongestionMap::peak() const {
  double best = 0.0;
  for (const double v : horizontal) best = std::max(best, v);
  for (const double v : vertical) best = std::max(best, v);
  return best;
}

double CongestionMap::mean() const {
  if (horizontal.empty()) return 0.0;
  double total = 0.0;
  for (const double v : horizontal) total += v;
  for (const double v : vertical) total += v;
  return total / static_cast<double>(horizontal.size() + vertical.size());
}

CongestionMap measure_congestion(const detail::GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  CongestionMap map;
  map.tiles_x = rg.tiles_x();
  map.tiles_y = rg.tiles_y();
  const std::size_t tiles =
      static_cast<std::size_t>(map.tiles_x) * map.tiles_y;
  map.horizontal.assign(tiles, 0.0);
  map.vertical.assign(tiles, 0.0);
  map.escape_use.assign(tiles, 0.0);

  std::vector<std::int64_t> h_used(tiles, 0), v_used(tiles, 0),
      esc_used(tiles, 0);

  const int h_layers =
      static_cast<int>(rg.layers_with(Orientation::kHorizontal).size());
  const int v_layers =
      static_cast<int>(rg.layers_with(Orientation::kVertical).size());

  for (LayerId l = 1; l < rg.num_layers(); ++l) {
    const bool horizontal = rg.layer_dir(l) == Orientation::kHorizontal;
    auto& used = horizontal ? h_used : v_used;
    grid.for_each_run(l, [&](Coord y, Coord lo, Coord hi, netlist::NetId) {
      const std::size_t row =
          static_cast<std::size_t>(rg.tile_of_y(y)) * map.tiles_x;
      for (Coord x = lo; x <= hi; ++x) {
        const std::size_t t = row + rg.tile_of_x(x);
        ++used[t];
        if (!horizontal && stitch.in_escape_region(x)) ++esc_used[t];
      }
    });
  }

  // Escape capacity is geometry alone: the escape columns of a tile times
  // its rows, on every vertical layer.
  std::vector<std::int64_t> escape_columns(
      static_cast<std::size_t>(map.tiles_x), 0);
  for (int tx = 0; tx < map.tiles_x; ++tx) {
    const geom::Interval span = rg.tile_x_span(tx);
    for (Coord x = span.lo; x <= span.hi; ++x)
      if (stitch.in_escape_region(x)) ++escape_columns[tx];
  }

  for (int ty = 0; ty < map.tiles_y; ++ty) {
    for (int tx = 0; tx < map.tiles_x; ++tx) {
      const std::size_t t = static_cast<std::size_t>(ty) * map.tiles_x + tx;
      const double area = static_cast<double>(rg.tile_x_span(tx).length()) *
                          rg.tile_y_span(ty).length();
      if (area > 0.0) {
        map.horizontal[t] = static_cast<double>(h_used[t]) / (area * h_layers);
        map.vertical[t] = static_cast<double>(v_used[t]) / (area * v_layers);
      }
      const std::int64_t esc_cap =
          escape_columns[tx] * rg.tile_y_span(ty).length() * v_layers;
      if (esc_cap > 0)
        map.escape_use[t] =
            static_cast<double>(esc_used[t]) / static_cast<double>(esc_cap);
    }
  }
  return map;
}

std::string ascii_heatmap(const CongestionMap& map, bool vertical) {
  const auto& data = vertical ? map.vertical : map.horizontal;
  std::ostringstream out;
  for (int ty = map.tiles_y - 1; ty >= 0; --ty) {  // y grows upward
    for (int tx = 0; tx < map.tiles_x; ++tx) {
      const double v = data[static_cast<std::size_t>(ty) * map.tiles_x + tx];
      if (v <= 0.0)
        out << '.';
      else if (v >= 1.0)
        out << '#';
      else
        out << static_cast<char>('0' + std::min(9, static_cast<int>(v * 10.0)));
    }
    out << '\n';
  }
  return out.str();
}

std::string svg_heatmap(const CongestionMap& map, bool vertical,
                        double pixels_per_tile) {
  const auto& data = vertical ? map.vertical : map.horizontal;
  std::ostringstream out;
  out << "<svg xmlns='http://www.w3.org/2000/svg' width='"
      << map.tiles_x * pixels_per_tile << "' height='"
      << map.tiles_y * pixels_per_tile << "'>\n";
  for (int ty = 0; ty < map.tiles_y; ++ty) {
    for (int tx = 0; tx < map.tiles_x; ++tx) {
      const double v = std::clamp(
          data[static_cast<std::size_t>(ty) * map.tiles_x + tx], 0.0, 1.0);
      const int red = static_cast<int>(std::lround(255 * v));
      out << "<rect x='" << tx * pixels_per_tile << "' y='"
          << (map.tiles_y - 1 - ty) * pixels_per_tile << "' width='"
          << pixels_per_tile << "' height='" << pixels_per_tile
          << "' fill='rgb(255," << 255 - red << ',' << 255 - red << ")'/>\n";
    }
  }
  out << "</svg>\n";
  return out.str();
}

}  // namespace mebl::eval
