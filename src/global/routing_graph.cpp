#include "global/routing_graph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>
#include <utility>

namespace mebl::global {

RoutingGraph::RoutingGraph(const grid::RoutingGrid& grid, bool stitch_aware,
                           bool tiled)
    : tiles_x_(grid.tiles_x()), tiles_y_(grid.tiles_y()), tiled_(tiled) {
  const grid::CapacityModel model(grid);
  int max_cap = 0;

  if (tiled_) {
    // The capacity model is uniform along one axis: a horizontal boundary's
    // capacity is the tile row's track count times the horizontal layers,
    // and a vertical boundary's (and a tile's line-end) capacity counts the
    // stitch-plan-free tracks of the tile *column*. One entry per axis
    // therefore covers the whole grid.
    h_cap_of_ty_.resize(static_cast<std::size_t>(tiles_y_), 0);
    v_cap_of_tx_.resize(static_cast<std::size_t>(tiles_x_), 0);
    vert_cap_of_tx_.resize(static_cast<std::size_t>(tiles_x_), 0);
    for (int ty = 0; ty < tiles_y_; ++ty)
      if (tiles_x_ > 1)
        h_cap_of_ty_[static_cast<std::size_t>(ty)] =
            model.horizontal_edge_capacity(0, ty);
    for (int tx = 0; tx < tiles_x_; ++tx) {
      if (tiles_y_ > 1)
        v_cap_of_tx_[static_cast<std::size_t>(tx)] =
            stitch_aware ? model.vertical_edge_capacity(tx, 0)
                         : model.vertical_edge_capacity_no_stitch(tx, 0);
      vert_cap_of_tx_[static_cast<std::size_t>(tx)] =
          model.line_end_capacity(tx, 0);
    }
#ifndef NDEBUG
    for (int ty = 0; ty < tiles_y_; ++ty)
      for (int tx = 0; tx + 1 < tiles_x_; ++tx)
        assert(model.horizontal_edge_capacity(tx, ty) ==
               h_cap_of_ty_[static_cast<std::size_t>(ty)]);
    for (int ty = 0; ty + 1 < tiles_y_; ++ty)
      for (int tx = 0; tx < tiles_x_; ++tx)
        assert((stitch_aware
                    ? model.vertical_edge_capacity(tx, ty)
                    : model.vertical_edge_capacity_no_stitch(tx, ty)) ==
               v_cap_of_tx_[static_cast<std::size_t>(tx)]);
    for (int ty = 0; ty < tiles_y_; ++ty)
      for (int tx = 0; tx < tiles_x_; ++tx)
        assert(model.line_end_capacity(tx, ty) ==
               vert_cap_of_tx_[static_cast<std::size_t>(tx)]);
#endif
    for (const int c : h_cap_of_ty_) max_cap = std::max(max_cap, c);
    for (const int c : v_cap_of_tx_) max_cap = std::max(max_cap, c);
    for (const int c : vert_cap_of_tx_) max_cap = std::max(max_cap, c);
    seed_psi_memo(max_cap);

    h_cost0_of_ty_.resize(h_cap_of_ty_.size());
    v_cost0_of_tx_.resize(v_cap_of_tx_.size());
    vert_cost0_of_tx_.resize(vert_cap_of_tx_.size());
    for (std::size_t i = 0; i < h_cap_of_ty_.size(); ++i)
      h_cost0_of_ty_[i] = psi_lookup(1, h_cap_of_ty_[i]);
    for (std::size_t i = 0; i < v_cap_of_tx_.size(); ++i)
      v_cost0_of_tx_[i] = psi_lookup(1, v_cap_of_tx_[i]);
    for (std::size_t i = 0; i < vert_cap_of_tx_.size(); ++i)
      vert_cost0_of_tx_[i] = psi_lookup(1, vert_cap_of_tx_[i]);

    slot_of_.assign(tiles_total(), -1);
    return;
  }

  h_cap_.resize(static_cast<std::size_t>(std::max(0, tiles_x_ - 1)) * tiles_y_);
  v_cap_.resize(static_cast<std::size_t>(tiles_x_) * std::max(0, tiles_y_ - 1));
  h_dem_.assign(h_cap_.size(), 0);
  v_dem_.assign(v_cap_.size(), 0);
  vert_cap_.resize(static_cast<std::size_t>(tiles_x_) * tiles_y_);
  vert_dem_.assign(vert_cap_.size(), 0);

  for (int ty = 0; ty < tiles_y_; ++ty)
    for (int tx = 0; tx + 1 < tiles_x_; ++tx)
      h_cap_[h_index(tx, ty)] = model.horizontal_edge_capacity(tx, ty);
  for (int ty = 0; ty + 1 < tiles_y_; ++ty)
    for (int tx = 0; tx < tiles_x_; ++tx)
      v_cap_[v_index(tx, ty)] = stitch_aware
                                    ? model.vertical_edge_capacity(tx, ty)
                                    : model.vertical_edge_capacity_no_stitch(tx, ty);
  for (int ty = 0; ty < tiles_y_; ++ty)
    for (int tx = 0; tx < tiles_x_; ++tx)
      vert_cap_[t_index(tx, ty)] = model.line_end_capacity(tx, ty);

  // Seed the psi memo for every capacity present, then freeze the initial
  // (demand = 0) marginal-cost rows.
  for (const int c : h_cap_) max_cap = std::max(max_cap, c);
  for (const int c : v_cap_) max_cap = std::max(max_cap, c);
  for (const int c : vert_cap_) max_cap = std::max(max_cap, c);
  seed_psi_memo(max_cap);
  h_cost_row_.resize(h_cap_.size());
  v_cost_row_.resize(v_cap_.size());
  vert_cost_row_.resize(vert_cap_.size());
  for (std::size_t i = 0; i < h_cap_.size(); ++i)
    h_cost_row_[i] = psi_lookup(1, h_cap_[i]);
  for (std::size_t i = 0; i < v_cap_.size(); ++i)
    v_cost_row_[i] = psi_lookup(1, v_cap_[i]);
  for (std::size_t i = 0; i < vert_cap_.size(); ++i)
    vert_cost_row_[i] = psi_lookup(1, vert_cap_[i]);
}

RoutingGraph RoutingGraph::with_capacities(int tiles_x, int tiles_y,
                                           std::vector<int> h_cap,
                                           std::vector<int> v_cap,
                                           std::vector<int> vert_cap) {
  RoutingGraph g;
  g.tiles_x_ = tiles_x;
  g.tiles_y_ = tiles_y;
  assert(h_cap.size() ==
         static_cast<std::size_t>(std::max(0, tiles_x - 1)) * tiles_y);
  assert(v_cap.size() ==
         static_cast<std::size_t>(tiles_x) * std::max(0, tiles_y - 1));
  assert(vert_cap.size() == static_cast<std::size_t>(tiles_x) * tiles_y);
  g.h_cap_ = std::move(h_cap);
  g.v_cap_ = std::move(v_cap);
  g.vert_cap_ = std::move(vert_cap);
  g.h_dem_.assign(g.h_cap_.size(), 0);
  g.v_dem_.assign(g.v_cap_.size(), 0);
  g.vert_dem_.assign(g.vert_cap_.size(), 0);

  int max_cap = 0;
  for (const int c : g.h_cap_) max_cap = std::max(max_cap, c);
  for (const int c : g.v_cap_) max_cap = std::max(max_cap, c);
  for (const int c : g.vert_cap_) max_cap = std::max(max_cap, c);
  g.seed_psi_memo(max_cap);
  g.h_cost_row_.resize(g.h_cap_.size());
  g.v_cost_row_.resize(g.v_cap_.size());
  g.vert_cost_row_.resize(g.vert_cap_.size());
  for (std::size_t i = 0; i < g.h_cap_.size(); ++i)
    g.h_cost_row_[i] = g.psi_lookup(1, g.h_cap_[i]);
  for (std::size_t i = 0; i < g.v_cap_.size(); ++i)
    g.v_cost_row_[i] = g.psi_lookup(1, g.v_cap_[i]);
  for (std::size_t i = 0; i < g.vert_cap_.size(); ++i)
    g.vert_cost_row_[i] = g.psi_lookup(1, g.vert_cap_[i]);
  return g;
}

std::size_t RoutingGraph::ensure_slot(int tx, int ty) {
  const std::size_t t = t_index(tx, ty);
  std::int32_t s = slot_of_[t];
  if (s < 0) {
    s = static_cast<std::int32_t>(slots_.size());
    slot_of_[t] = s;
    slots_.emplace_back();
  }
  return static_cast<std::size_t>(s);
}

void RoutingGraph::add_h_demand(int tx, int ty, int delta) {
  if (tiled_) {
    TileSlot& slot = slots_[ensure_slot(tx, ty)];
    const int cap = h_cap_of_ty_[static_cast<std::size_t>(ty)];
    total_edge_overflow_ -= std::max(0, slot.h_dem - cap);
    slot.h_dem += delta;
    assert(slot.h_dem >= 0);
    total_edge_overflow_ += std::max(0, slot.h_dem - cap);
    // Grow the memo row to demand + 1 so memo_cost() can index it without
    // mutation on the frozen read path.
    grow_psi_memo(slot.h_dem + 1, cap);
    return;
  }
  const std::size_t i = h_index(tx, ty);
  int& d = h_dem_[i];
  const int cap = h_cap_[i];
  total_edge_overflow_ -= std::max(0, d - cap);
  d += delta;
  assert(d >= 0);
  total_edge_overflow_ += std::max(0, d - cap);
  h_cost_row_[i] = psi_lookup(d + 1, cap);
}

void RoutingGraph::add_v_demand(int tx, int ty, int delta) {
  if (tiled_) {
    TileSlot& slot = slots_[ensure_slot(tx, ty)];
    const int cap = v_cap_of_tx_[static_cast<std::size_t>(tx)];
    total_edge_overflow_ -= std::max(0, slot.v_dem - cap);
    slot.v_dem += delta;
    assert(slot.v_dem >= 0);
    total_edge_overflow_ += std::max(0, slot.v_dem - cap);
    grow_psi_memo(slot.v_dem + 1, cap);  // the row memo_cost() reads
    return;
  }
  const std::size_t i = v_index(tx, ty);
  int& d = v_dem_[i];
  const int cap = v_cap_[i];
  total_edge_overflow_ -= std::max(0, d - cap);
  d += delta;
  assert(d >= 0);
  total_edge_overflow_ += std::max(0, d - cap);
  v_cost_row_[i] = psi_lookup(d + 1, cap);
}

void RoutingGraph::add_vertex_demand(int tx, int ty, int delta) {
  if (tiled_) {
    TileSlot& slot = slots_[ensure_slot(tx, ty)];
    const int cap = vert_cap_of_tx_[static_cast<std::size_t>(tx)];
    total_vertex_overflow_ -= std::max(0, slot.vert_dem - cap);
    slot.vert_dem += delta;
    assert(slot.vert_dem >= 0);
    total_vertex_overflow_ += std::max(0, slot.vert_dem - cap);
    grow_psi_memo(slot.vert_dem + 1, cap);  // the row memo_cost() reads
    return;
  }
  const std::size_t i = t_index(tx, ty);
  int& d = vert_dem_[i];
  const int cap = vert_cap_[i];
  total_vertex_overflow_ -= std::max(0, d - cap);
  d += delta;
  assert(d >= 0);
  total_vertex_overflow_ += std::max(0, d - cap);
  vert_cost_row_[i] = psi_lookup(d + 1, cap);
}

double RoutingGraph::psi(int demand, int capacity) {
  if (capacity <= 0) return demand > 0 ? 1e9 : 0.0;
  return std::exp2(static_cast<double>(demand) / capacity) - 1.0;
}

double RoutingGraph::psi_lookup(int demand, int capacity) {
  if (capacity <= 0) return demand > 0 ? 1e9 : 0.0;
  if (demand < 0 || static_cast<std::size_t>(capacity) >= psi_memo_.size())
    return psi(demand, capacity);  // outside the memo's domain
  grow_psi_memo(demand, capacity);
  return psi_memo_[static_cast<std::size_t>(capacity)]
                  [static_cast<std::size_t>(demand)];
}

void RoutingGraph::grow_psi_memo(int demand, int capacity) {
  if (capacity <= 0 || demand < 0 ||
      static_cast<std::size_t>(capacity) >= psi_memo_.size())
    return;  // outside the memo's domain
  auto& row = psi_memo_[static_cast<std::size_t>(capacity)];
  while (row.size() <= static_cast<std::size_t>(demand))
    row.push_back(psi(static_cast<int>(row.size()), capacity));
}

void RoutingGraph::seed_psi_memo(int max_cap) {
  psi_memo_.resize(static_cast<std::size_t>(max_cap) + 1);
}

int RoutingGraph::max_vertex_overflow() const {
  int best = 0;
  if (tiled_) {
    // One directory scan per finalize; unmaterialized tiles have demand 0.
    for (std::size_t t = 0; t < slot_of_.size(); ++t) {
      const std::int32_t s = slot_of_[t];
      if (s < 0) continue;
      const int tx = static_cast<int>(t) % tiles_x_;
      best = std::max(best, slots_[static_cast<std::size_t>(s)].vert_dem -
                                vert_cap_of_tx_[static_cast<std::size_t>(tx)]);
    }
    return std::max(0, best);
  }
  for (std::size_t i = 0; i < vert_dem_.size(); ++i)
    best = std::max(best, vert_dem_[i] - vert_cap_[i]);
  return std::max(0, best);
}

std::size_t RoutingGraph::storage_bytes() const noexcept {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  if (tiled_)
    return bytes(h_cap_of_ty_) + bytes(v_cap_of_tx_) + bytes(vert_cap_of_tx_) +
           bytes(h_cost0_of_ty_) + bytes(v_cost0_of_tx_) +
           bytes(vert_cost0_of_tx_) + bytes(slot_of_) + bytes(slots_);
  return bytes(h_cap_) + bytes(v_cap_) + bytes(vert_cap_) + bytes(h_dem_) +
         bytes(v_dem_) + bytes(vert_dem_) + bytes(h_cost_row_) +
         bytes(v_cost_row_) + bytes(vert_cost_row_);
}

}  // namespace mebl::global
