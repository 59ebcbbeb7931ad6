#pragma once

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "detail/node_bitmap.hpp"
#include "grid/routing_grid.hpp"
#include "netlist/netlist.hpp"

namespace mebl::detail {

/// Occupancy model of the full 3-D detailed-routing grid.
///
/// A node is (x, y, layer); layer 0 is the pin layer. Each node is either
/// free (owner -1) or owned by exactly one net. Routed geometry is the set
/// of owned nodes: same-net adjacency along a layer's preferred direction is
/// wire, same-net adjacency across layers is a via.
///
/// Storage is demand-paged: the owner slots (net + 1, 0 = free) live in one
/// calloc'ed block the kernel maps lazily, so only pages that routing writes
/// cost resident memory and reads of untouched ones see the shared zero
/// page. index() lays the grid out block-major — a kBlock x kBlock tile of
/// one layer is kBlock² consecutive slots, exactly one 4 KiB page — so a
/// vertical wire touches one page per kBlock rows, not one per row.
class GridGraph {
 public:
  /// log2 of the side of one block-major tile.
  static constexpr int kBlockShift = 5;
  static constexpr int kBlock = 1 << kBlockShift;
  /// log2 of the slots in one block (kBlock² = 1024 slots = 4 KiB).
  static constexpr int kBlockSlotsShift = 2 * kBlockShift;

  /// Throws std::bad_alloc when the owner slots cannot be reserved.
  explicit GridGraph(const grid::RoutingGrid& grid);

  [[nodiscard]] const grid::RoutingGrid& routing_grid() const noexcept {
    return *grid_;
  }

  [[nodiscard]] netlist::NetId owner(geom::Point3 p) const {
    return owner_[index(p)] - 1;
  }
  [[nodiscard]] bool is_free(geom::Point3 p) const { return owner(p) == -1; }
  [[nodiscard]] bool is_free_or(geom::Point3 p, netlist::NetId net) const {
    const netlist::NetId o = owner(p);
    return o == -1 || o == net;
  }

  /// Claim a node for a net. Claiming a node already owned by the same net
  /// is a no-op; claiming another net's node is a programming error.
  void claim(geom::Point3 p, netlist::NetId net);

  /// Release a node (rip-up). Releasing a free node is a no-op.
  void release(geom::Point3 p);

  /// Number of nodes currently owned by any net.
  [[nodiscard]] std::int64_t occupied_nodes() const noexcept {
    return occupied_;
  }

  // --- stitch-constraint queries (hard constraints of SII-A) ---------------

  /// A wire may move vertically at x only off stitching-line columns.
  [[nodiscard]] bool vertical_move_allowed(geom::Coord x) const {
    return !grid_->stitch().is_stitch_column(x);
  }

  /// A via at x is allowed off stitching lines; on a line it is a via
  /// violation, tolerated only at fixed pin locations.
  [[nodiscard]] bool via_allowed(geom::Coord x) const {
    return !grid_->stitch().is_stitch_column(x);
  }

  /// Slot of node `p` in block-major order; a bijection from the grid's
  /// nodes into [0, index_space()). Size index-keyed structures by
  /// index_space(), not by the node count: edge blocks are padded. The
  /// layer, row and column parts are precomputed, so a lookup is three
  /// small-table loads and no multiply.
  [[nodiscard]] std::size_t index(geom::Point3 p) const {
    return layer_offset_[static_cast<std::size_t>(p.layer)] +
           row_offset_[static_cast<std::size_t>(p.y)] +
           column_offset_[static_cast<std::size_t>(p.x)];
  }
  [[nodiscard]] std::size_t index_space() const noexcept {
    return index_space_;
  }

  /// Bytes of address space reserved for the owner slots (resident only
  /// where touched).
  [[nodiscard]] std::size_t owner_reserved_bytes() const noexcept {
    return index_space_ * sizeof(std::int32_t);
  }
  /// Distinct blocks (4 KiB pages of owner slots) ever claimed into.
  [[nodiscard]] std::size_t owner_blocks_touched() const noexcept {
    return blocks_touched_.count();
  }

 private:
  struct FreeDeleter {
    void operator()(std::int32_t* p) const noexcept { std::free(p); }
  };

  const grid::RoutingGrid* grid_;
  std::size_t index_space_;
  std::vector<std::size_t> layer_offset_;   ///< first slot of each layer
  std::vector<std::size_t> row_offset_;     ///< y's block row + row in block
  std::vector<std::size_t> column_offset_;  ///< x's block + column in block
  /// net + 1 per slot, 0 = free (zero-initialised by calloc).
  std::unique_ptr<std::int32_t[], FreeDeleter> owner_;
  /// One bit per block: has any claim ever written into it.
  NodeBitmap blocks_touched_;
  std::int64_t occupied_ = 0;
};

}  // namespace mebl::detail
