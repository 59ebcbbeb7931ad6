#include "detail/grid_graph.hpp"

#include <algorithm>
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

/// True when a node of `net` sits directly above or below p: a via lands
/// at p.
bool has_via(const GridGraph& grid, geom::Point3 p, netlist::NetId net) {
  if (p.layer > 0 &&
      grid.owner({p.x, p.y, static_cast<geom::LayerId>(p.layer - 1)}) == net)
    return true;
  return p.layer + 1 < grid.routing_grid().num_layers() &&
         grid.owner({p.x, p.y, static_cast<geom::LayerId>(p.layer + 1)}) == net;
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
  block_stamp_.assign(index_space_ >> kBlockSlotsShift, 0);

  constexpr std::size_t kMask = kBlock - 1;
  blocks_x_ = blocks_along(grid.width());
  for (int l = 0; l < grid.num_layers(); ++l)
    layer_offset_.push_back(static_cast<std::size_t>(l) * layer_slots(grid));
  for (std::size_t y = 0; y < static_cast<std::size_t>(grid.height()); ++y)
    row_offset_.push_back(
        (((y >> kBlockShift) * blocks_x_) << kBlockSlotsShift) +
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
    note_change(i, /*touched=*/false);
    slot = net + 1;
    ++occupied_;
    blocks_touched_.set(i >> kBlockSlotsShift);
  }
}

void GridGraph::release(geom::Point3 p) {
  assert(grid_->in_bounds(p));
  const std::size_t i = index(p);
  std::int32_t& slot = owner_[i];
  if (slot != 0) {
    note_change(i, /*touched=*/false);
    slot = 0;
    --occupied_;
  }
}

void GridGraph::touch(geom::Point3 p) {
  assert(grid_->in_bounds(p));
  note_change(index(p), /*touched=*/true);
}

void GridGraph::note_change(std::size_t i, bool touched) {
  const std::size_t block = i >> kBlockSlotsShift;
  Seq& stamp = block_stamp_[block];
  if (in_transaction_) {
    if (stamp <= transaction_seq_) {
      saved_.push_back({block, stamp, touched});  // first change of the block
    } else if (touched) {
      const auto it = std::find_if(
          saved_.begin(), saved_.end(),
          [block](const SavedBlock& s) { return s.block == block; });
      assert(it != saved_.end());
      it->keep = true;
    }
    if (!touched) undo_.push_back({i, owner_[i]});
  }
  stamp = ++seq_;
}

GridGraph::Seq GridGraph::last_change(const geom::Rect& r) const {
  const geom::Rect clipped = r.intersect(grid_->extent());
  if (clipped.empty()) return 0;
  const auto bx0 = static_cast<std::size_t>(clipped.xlo) >> kBlockShift;
  const auto bx1 = static_cast<std::size_t>(clipped.xhi) >> kBlockShift;
  const auto by0 = static_cast<std::size_t>(clipped.ylo) >> kBlockShift;
  const auto by1 = static_cast<std::size_t>(clipped.yhi) >> kBlockShift;
  Seq newest = 0;
  for (const std::size_t first_slot : layer_offset_) {
    const std::size_t base = first_slot >> kBlockSlotsShift;
    for (std::size_t by = by0; by <= by1; ++by)
      for (std::size_t bx = bx0; bx <= bx1; ++bx)
        newest = std::max(newest, block_stamp_[base + by * blocks_x_ + bx]);
  }
  return newest;
}

void GridGraph::begin_transaction() {
  assert(!in_transaction_);
  in_transaction_ = true;
  transaction_seq_ = seq_;
}

void GridGraph::end_transaction() {
  assert(in_transaction_);
  // The first logged write of a slot holds its begin-time value; a block
  // changed when any of its slots ends elsewhere.
  std::sort(saved_.begin(), saved_.end(),
            [](const SavedBlock& a, const SavedBlock& b) {
              return a.block < b.block;
            });
  std::stable_sort(
      undo_.begin(), undo_.end(),
      [](const Undo& a, const Undo& b) { return a.slot < b.slot; });
  for (std::size_t k = 0; k < undo_.size(); ++k) {
    const Undo& first = undo_[k];
    while (k + 1 < undo_.size() && undo_[k + 1].slot == first.slot) ++k;
    if (owner_[first.slot] == first.before) continue;
    const std::size_t block = first.slot >> kBlockSlotsShift;
    std::lower_bound(saved_.begin(), saved_.end(), block,
                     [](const SavedBlock& s, std::size_t b) {
                       return s.block < b;
                     })
        ->keep = true;
  }
  for (const SavedBlock& saved : saved_)
    if (!saved.keep) block_stamp_[saved.block] = saved.stamp;
  saved_.clear();
  undo_.clear();
  in_transaction_ = false;
}

std::vector<ShortPolygonEnd> short_polygon_ends(const GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  std::vector<ShortPolygonEnd> ends;
  for (const geom::LayerId layer :
       rg.layers_with(geom::Orientation::kHorizontal)) {
    grid.for_each_run(layer, [&](geom::Coord y, geom::Coord lo,
                                 geom::Coord hi, netlist::NetId net) {
      if (hi == lo) return;  // an isolated via landing, not a wire
      for (const geom::Coord s : stitch.lines_cutting({lo, hi})) {
        if (s - lo <= stitch.epsilon() && has_via(grid, {lo, y, layer}, net))
          ends.push_back({{lo, y, layer}, net, s - lo});
        if (hi - s <= stitch.epsilon() && has_via(grid, {hi, y, layer}, net))
          ends.push_back({{hi, y, layer}, net, hi - s});
      }
    });
  }
  return ends;
}

}  // namespace mebl::detail
