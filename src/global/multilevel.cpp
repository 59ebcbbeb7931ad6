#include "global/multilevel.hpp"

#include <algorithm>
#include <cassert>

namespace mebl::global {

MultilevelScheduler::MultilevelScheduler(int tiles_x, int tiles_y)
    : tiles_x_(tiles_x), tiles_y_(tiles_y) {
  assert(tiles_x >= 1 && tiles_y >= 1);
  int level = 0;
  while ((1 << level) < std::max(tiles_x, tiles_y)) ++level;
  num_levels_ = level + 1;  // level `level` has a single cluster
}

int MultilevelScheduler::level_of(const geom::Rect& tile_bbox) const {
  assert(!tile_bbox.empty());
  for (int level = 0; level < num_levels_; ++level) {
    const int size = 1 << level;
    if (tile_bbox.xlo / size == tile_bbox.xhi / size &&
        tile_bbox.ylo / size == tile_bbox.yhi / size)
      return level;
  }
  return num_levels_ - 1;
}

geom::Rect MultilevelScheduler::cluster_region(const geom::Rect& tile_bbox,
                                               int level) const {
  const int size = 1 << level;
  const geom::Coord cx = tile_bbox.xlo / size;
  const geom::Coord cy = tile_bbox.ylo / size;
  geom::Rect region{cx * size, cy * size, (cx + 1) * size - 1,
                    (cy + 1) * size - 1};
  // A bbox that straddles clusters at this level (only at the top) is
  // clipped by hulling with itself before clamping to the grid.
  region = region.hull(tile_bbox);
  return region.intersect(
      geom::Rect{0, 0, tiles_x_ - 1, tiles_y_ - 1});
}

std::vector<std::vector<std::size_t>> MultilevelScheduler::schedule(
    const std::vector<geom::Rect>& tile_bboxes) const {
  std::vector<std::vector<std::size_t>> buckets(
      static_cast<std::size_t>(num_levels_));
  for (std::size_t i = 0; i < tile_bboxes.size(); ++i)
    buckets[static_cast<std::size_t>(level_of(tile_bboxes[i]))].push_back(i);
  return buckets;
}

// ---------------------------------------------------------------------------
// Coarsen–route–refine

RoutingGraph coarsen_graph(const RoutingGraph& fine, int factor) {
  assert(factor >= 2);
  const int fx = fine.tiles_x();
  const int fy = fine.tiles_y();
  const int cx_count = (fx + factor - 1) / factor;
  const int cy_count = (fy + factor - 1) / factor;
  const auto lo_of = [&](int c) { return c * factor; };
  const auto hi_of = [&](int c, int fine_count) {
    return std::min((c + 1) * factor, fine_count);  // exclusive
  };

  std::vector<int> h_cap(
      static_cast<std::size_t>(std::max(0, cx_count - 1)) * cy_count, 0);
  std::vector<int> v_cap(
      static_cast<std::size_t>(cx_count) * std::max(0, cy_count - 1), 0);
  std::vector<int> vert_cap(static_cast<std::size_t>(cx_count) * cy_count, 0);

  // A coarse h-edge (cx,cy) collapses the fine h-edges crossing the fine
  // column boundary at tx = (cx+1)*factor - 1, over cy's fine rows.
  for (int cy = 0; cy < cy_count; ++cy)
    for (int cx = 0; cx + 1 < cx_count; ++cx) {
      const int bx = (cx + 1) * factor - 1;
      int sum = 0;
      for (int ty = lo_of(cy); ty < hi_of(cy, fy); ++ty)
        sum += fine.h_capacity(bx, ty);
      h_cap[static_cast<std::size_t>(cy) * (cx_count - 1) + cx] = sum;
    }
  for (int cy = 0; cy + 1 < cy_count; ++cy)
    for (int cx = 0; cx < cx_count; ++cx) {
      const int by = (cy + 1) * factor - 1;
      int sum = 0;
      for (int tx = lo_of(cx); tx < hi_of(cx, fx); ++tx)
        sum += fine.v_capacity(tx, by);
      v_cap[static_cast<std::size_t>(cy) * cx_count + cx] = sum;
    }
  for (int cy = 0; cy < cy_count; ++cy)
    for (int cx = 0; cx < cx_count; ++cx) {
      int sum = 0;
      for (int ty = lo_of(cy); ty < hi_of(cy, fy); ++ty)
        for (int tx = lo_of(cx); tx < hi_of(cx, fx); ++tx)
          sum += fine.vertex_capacity(tx, ty);
      vert_cap[static_cast<std::size_t>(cy) * cx_count + cx] = sum;
    }

  return RoutingGraph::with_capacities(cx_count, cy_count, std::move(h_cap),
                                       std::move(v_cap), std::move(vert_cap));
}

void commit_coarse_path(RoutingGraph& coarse,
                        const std::vector<grid::GCellId>& cells, int sign) {
  for_each_demand(
      cells,
      [&](bool horizontal, int tx, int ty) {
        if (horizontal)
          coarse.add_h_demand(tx, ty, sign);
        else
          coarse.add_v_demand(tx, ty, sign);
      },
      [&](int tx, int ty) { coarse.add_vertex_demand(tx, ty, sign); });
}

geom::Rect stamp_corridor(const std::vector<grid::GCellId>& coarse_cells,
                          int factor, int margin, int tiles_x, int tiles_y,
                          GlobalSearchScratch& scratch) {
  assert(!coarse_cells.empty());
  scratch.begin_corridor(static_cast<std::size_t>(tiles_x) * tiles_y);
  geom::Rect bbox{tiles_x, tiles_y, -1, -1};  // empty until the first hull
  bool first = true;
  for (const grid::GCellId cell : coarse_cells) {
    const geom::Rect fine_rect =
        geom::Rect{cell.tx * factor, cell.ty * factor,
                   (cell.tx + 1) * factor - 1, (cell.ty + 1) * factor - 1}
            .inflated(margin)
            .intersect(geom::Rect{0, 0, tiles_x - 1, tiles_y - 1});
    for (geom::Coord ty = fine_rect.ylo; ty <= fine_rect.yhi; ++ty)
      for (geom::Coord tx = fine_rect.xlo; tx <= fine_rect.xhi; ++tx)
        scratch.admit_tile(static_cast<std::size_t>(ty) * tiles_x + tx);
    bbox = first ? fine_rect : bbox.hull(fine_rect);
    first = false;
  }
  return bbox;
}

}  // namespace mebl::global
