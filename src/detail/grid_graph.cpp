#include "detail/grid_graph.hpp"

#include <cassert>
#include <new>

namespace mebl::detail {

namespace {

std::size_t blocks_along(int tracks) {
  return (static_cast<std::size_t>(tracks) + GridGraph::kBlock - 1) >>
         GridGraph::kBlockShift;
}

/// Slots of one layer: the whole blocks covering its width x height.
std::size_t layer_slots(const grid::RoutingGrid& grid) {
  return (blocks_along(grid.width()) * blocks_along(grid.height()))
         << GridGraph::kBlockSlotsShift;
}

}  // namespace

GridGraph::GridGraph(const grid::RoutingGrid& grid)
    : grid_(&grid),
      index_space_(static_cast<std::size_t>(grid.num_layers()) *
                   layer_slots(grid)),
      owner_(static_cast<std::int32_t*>(
          std::calloc(index_space_, sizeof(std::int32_t)))) {
  if (owner_ == nullptr && index_space_ > 0) throw std::bad_alloc();
  blocks_touched_.reset(index_space_ >> kBlockSlotsShift);

  constexpr std::size_t kMask = kBlock - 1;
  const std::size_t blocks_x = blocks_along(grid.width());
  for (int l = 0; l < grid.num_layers(); ++l)
    layer_offset_.push_back(static_cast<std::size_t>(l) * layer_slots(grid));
  for (std::size_t y = 0; y < static_cast<std::size_t>(grid.height()); ++y)
    row_offset_.push_back(
        (((y >> kBlockShift) * blocks_x) << kBlockSlotsShift) +
        ((y & kMask) << kBlockShift));
  for (std::size_t x = 0; x < static_cast<std::size_t>(grid.width()); ++x)
    column_offset_.push_back(((x >> kBlockShift) << kBlockSlotsShift) +
                             (x & kMask));
}

void GridGraph::claim(geom::Point3 p, netlist::NetId net) {
  assert(grid_->in_bounds(p));
  assert(net >= 0);
  const std::size_t i = index(p);
  std::int32_t& slot = owner_[i];
  assert(slot == 0 || slot == net + 1);
  if (slot == 0) {
    slot = net + 1;
    ++occupied_;
    blocks_touched_.set(i >> kBlockSlotsShift);
  }
}

void GridGraph::release(geom::Point3 p) {
  assert(grid_->in_bounds(p));
  std::int32_t& slot = owner_[index(p)];
  if (slot != 0) {
    slot = 0;
    --occupied_;
  }
}

}  // namespace mebl::detail
