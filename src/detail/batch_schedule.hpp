#pragma once

#include <cstddef>
#include <vector>

#include "assign/panel.hpp"
#include "geom/rect.hpp"
#include "grid/routing_grid.hpp"
#include "netlist/netlist.hpp"

namespace mebl::detail {

/// Conservative bounding box of every grid node that routing subnet `idx`'s
/// *first attempt* may read or write: the pin bbox inflated by the A*
/// margin, hulled with the x-tracks of every planned vertical run's pieces
/// and the y-rows of every planned horizontal run's panel (the realizer's
/// legs are axis-aligned segments between points of that hull, so the whole
/// realized path stays inside it). Two subnets with disjoint boxes can be
/// routed in either order — or concurrently against a frozen grid — with
/// bit-identical results.
[[nodiscard]] geom::Rect subnet_search_box(const netlist::Subnet& subnet,
                                           const assign::RoutePlan& plan,
                                           std::size_t idx,
                                           const grid::RoutingGrid& rg,
                                           geom::Coord margin);

/// Greedy prefix batching for the detailed router's scheduler: walk `order`
/// front to back, extending the current batch while the next subnet's box
/// (`boxes[i]` belongs to `order[i]`) is disjoint from every box already
/// gathered (tested conservatively on a uniform bin grid of `bin_size`
/// tracks over the boxes' hull), and closing it at the first conflict or at
/// `max_batch` members. Storage is O(order + hull bins), never O(design), so
/// short orders (one net's subnets) stay cheap. The concatenation of the
/// returned batches is exactly `order`, and the boxes within one batch are
/// pairwise disjoint — so executing batches in sequence, with any
/// serialization (or parallelization) inside a batch, reproduces the
/// strictly sequential schedule node for node. Subnets whose boxes overlap
/// everything simply degenerate to singleton batches: the sequential tail.
///
/// Deterministic: depends only on `order` and `boxes`, never on thread
/// count or timing.
[[nodiscard]] std::vector<std::vector<std::size_t>> gather_disjoint_batches(
    const std::vector<std::size_t>& order,
    const std::vector<geom::Rect>& boxes, geom::Coord bin_size,
    std::size_t max_batch);

}  // namespace mebl::detail
