#include "global/routing_graph.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <type_traits>
#include <utility>

namespace mebl::global {

RoutingGraph::Capacities RoutingGraph::axis_capacities(
    const grid::RoutingGrid& grid, bool stitch_aware) {
  // The capacity model is uniform along one axis: a horizontal boundary's
  // capacity depends only on the tile row, a vertical boundary's and a
  // tile's line-end capacity only on the tile column. One model call per
  // row or column, broadcast along the other axis.
  const grid::CapacityModel model(grid);
  Capacities caps{grid.tiles_x(), grid.tiles_y(), {}, {}, {}};
  const auto x_count = static_cast<std::size_t>(caps.tiles_x);
  const auto y_count = static_cast<std::size_t>(caps.tiles_y);

  std::vector<int> v_of_tx(x_count), vert_of_tx(x_count);
  for (int tx = 0; tx < caps.tiles_x; ++tx) {
    if (caps.tiles_y > 1)
      v_of_tx[static_cast<std::size_t>(tx)] =
          stitch_aware ? model.vertical_edge_capacity(tx)
                       : model.vertical_edge_capacity_no_stitch(tx);
    vert_of_tx[static_cast<std::size_t>(tx)] = model.line_end_capacity(tx);
  }

  caps.h.reserve((x_count - 1) * y_count);
  caps.v.reserve(x_count * (y_count - 1));
  caps.vert.reserve(x_count * y_count);
  for (int ty = 0; ty < caps.tiles_y; ++ty) {
    if (caps.tiles_x > 1)
      caps.h.insert(caps.h.end(), x_count - 1,
                    model.horizontal_edge_capacity(ty));
    if (ty + 1 < caps.tiles_y)
      caps.v.insert(caps.v.end(), v_of_tx.begin(), v_of_tx.end());
    caps.vert.insert(caps.vert.end(), vert_of_tx.begin(), vert_of_tx.end());
  }
  return caps;
}

RoutingGraph::RoutingGraph(const grid::RoutingGrid& grid, bool stitch_aware)
    : RoutingGraph(axis_capacities(grid, stitch_aware)) {}

RoutingGraph RoutingGraph::with_capacities(int tiles_x, int tiles_y,
                                           std::vector<int> h_cap,
                                           std::vector<int> v_cap,
                                           std::vector<int> vert_cap) {
  return RoutingGraph(Capacities{tiles_x, tiles_y, std::move(h_cap),
                                 std::move(v_cap), std::move(vert_cap)});
}

RoutingGraph::RoutingGraph(Capacities caps)
    : tiles_x_(caps.tiles_x),
      tiles_y_(caps.tiles_y),
      h_cap_(std::move(caps.h)),
      v_cap_(std::move(caps.v)),
      vert_cap_(std::move(caps.vert)) {
  assert(h_cap_.size() ==
         static_cast<std::size_t>(std::max(0, tiles_x_ - 1)) * tiles_y_);
  assert(v_cap_.size() ==
         static_cast<std::size_t>(tiles_x_) * std::max(0, tiles_y_ - 1));
  assert(vert_cap_.size() == static_cast<std::size_t>(tiles_x_) * tiles_y_);
  h_dem_.assign(h_cap_.size(), 0);
  v_dem_.assign(v_cap_.size(), 0);
  vert_dem_.assign(vert_cap_.size(), 0);

  // Size the psi memo for every capacity present, then freeze the initial
  // (demand = 0) marginal-cost rows.
  int max_cap = 0;
  for (const auto* caps_row : {&h_cap_, &v_cap_, &vert_cap_})
    for (const int c : *caps_row) max_cap = std::max(max_cap, c);
  psi_memo_.resize(static_cast<std::size_t>(max_cap) + 1);
  const auto freeze = [this](const std::vector<int>& cap,
                             std::vector<double>& row) {
    row.resize(cap.size());
    for (std::size_t i = 0; i < cap.size(); ++i) row[i] = psi_lookup(1, cap[i]);
  };
  freeze(h_cap_, h_cost_row_);
  freeze(v_cap_, v_cost_row_);
  freeze(vert_cap_, vert_cost_row_);
}

void RoutingGraph::add_h_demand(int tx, int ty, int delta) {
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
  auto& row = psi_memo_[static_cast<std::size_t>(capacity)];
  while (row.size() <= static_cast<std::size_t>(demand))
    row.push_back(psi(static_cast<int>(row.size()), capacity));
  return row[static_cast<std::size_t>(demand)];
}

int RoutingGraph::max_vertex_overflow() const {
  int best = 0;
  for (std::size_t i = 0; i < vert_dem_.size(); ++i)
    best = std::max(best, vert_dem_[i] - vert_cap_[i]);
  return best;
}

std::size_t RoutingGraph::storage_bytes() const noexcept {
  const auto bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return bytes(h_cap_) + bytes(v_cap_) + bytes(vert_cap_) + bytes(h_dem_) +
         bytes(v_dem_) + bytes(vert_dem_) + bytes(h_cost_row_) +
         bytes(v_cost_row_) + bytes(vert_cost_row_);
}

}  // namespace mebl::global
