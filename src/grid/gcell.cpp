#include "grid/gcell.hpp"

#include <cassert>

namespace mebl::grid {

using geom::Orientation;

int CapacityModel::horizontal_edge_capacity(int ty) const {
  assert(ty >= 0 && ty < grid_->tiles_y());
  const int h_layers =
      static_cast<int>(grid_->layers_with(Orientation::kHorizontal).size());
  return grid_->tile_y_span(ty).length() * h_layers;
}

int CapacityModel::vertical_edge_capacity(int tx) const {
  assert(tx >= 0 && tx < grid_->tiles_x());
  const int v_layers =
      static_cast<int>(grid_->layers_with(Orientation::kVertical).size());
  return grid_->stitch().free_tracks(grid_->tile_x_span(tx)) * v_layers;
}

int CapacityModel::vertical_edge_capacity_no_stitch(int tx) const {
  assert(tx >= 0 && tx < grid_->tiles_x());
  const int v_layers =
      static_cast<int>(grid_->layers_with(Orientation::kVertical).size());
  return grid_->tile_x_span(tx).length() * v_layers;
}

int CapacityModel::line_end_capacity(int tx) const {
  assert(tx >= 0 && tx < grid_->tiles_x());
  const int v_layers =
      static_cast<int>(grid_->layers_with(Orientation::kVertical).size());
  return grid_->stitch().line_end_capacity(grid_->tile_x_span(tx)) * v_layers;
}

}  // namespace mebl::grid
