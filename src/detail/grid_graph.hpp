#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <vector>

#include "detail/node_bitmap.hpp"
#include "geom/rect.hpp"
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
///
/// Every block also carries a change stamp: the sequence number of the last
/// write that changed one of its slots (or of a touch()). last_change(rect)
/// is what the detailed router's repair memo compares against the sequence
/// number it recorded with a no-op outcome (DESIGN.md §9). A transaction
/// (begin_transaction / end_transaction) reports only its net effect: a
/// block whose slots all end where they started, and that was not touched,
/// gets its pre-transaction stamp back.
///
/// for_each_run() is the one way to read the whole routed geometry: every
/// metric, map, audit and short-polygon scan walks the grid through it.
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

  // --- change log ----------------------------------------------------------

  /// Monotonic change sequence number; 0 = nothing has changed yet.
  using Seq = std::uint64_t;

  /// The newest sequence number issued so far.
  [[nodiscard]] Seq seq() const noexcept { return seq_; }

  /// Newest change stamp over every block `r` covers, on all layers (0 when
  /// none of them ever changed). Invariant: for any sequence number t read
  /// outside a transaction, last_change(r) <= t implies every slot in `r`
  /// holds the value it held at t.
  [[nodiscard]] Seq last_change(const geom::Rect& r) const;

  /// Stamp p's block as changed without changing its slot: for state that
  /// lives next to the grid but is read with it (pin reservations, pin-guard
  /// penalties). A touch survives transaction compression.
  void touch(geom::Point3 p);

  /// Open a transaction; transactions do not nest.
  void begin_transaction();
  /// Close it: every block it changed whose slots all hold their
  /// begin-time values again, and that was not touched, gets its
  /// begin-time stamp back. The stamps other blocks got inside the
  /// transaction stay, so a sequence number read inside one no longer obeys
  /// last_change()'s invariant after the end — a reader must check its
  /// rects against it before calling end_transaction().
  void end_transaction();

  /// Visit every maximal same-net run of owned nodes along x on `layer`
  /// (1-node runs included) as fn(y, x_lo, x_hi, net), row-major: y
  /// ascending, then x — the order of a plain nested loop, so sums and
  /// vectors built in the callback come out identical to one. A block never
  /// claimed into is all free, so no run crosses it and it is not read; a
  /// block released after a claim stays touched and is read.
  template <typename Fn>
  void for_each_run(geom::LayerId layer, Fn&& fn) const;

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

  /// Stamp the block of slot `i` before its slot changes (or, `touched`,
  /// without a slot change); inside a transaction, log the old value and
  /// save the block's begin-time stamp on its first change.
  void note_change(std::size_t i, bool touched);

  /// A block the open transaction changed, with its begin-time stamp.
  /// `keep` marks a block whose new stamp must stay: touched, or found
  /// changed at the end.
  struct SavedBlock {
    std::size_t block;
    Seq stamp;
    bool keep;
  };
  /// One slot write inside the open transaction and the value it replaced.
  struct Undo {
    std::size_t slot;
    std::int32_t before;
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

  std::size_t blocks_x_ = 0;  ///< blocks along x, per layer
  /// Change stamp per block (8 B per 4 KiB page of owner slots).
  std::vector<Seq> block_stamp_;
  Seq seq_ = 0;
  bool in_transaction_ = false;
  /// seq() at begin_transaction(): a block stamped after it is already
  /// saved.
  Seq transaction_seq_ = 0;
  std::vector<SavedBlock> saved_;
  std::vector<Undo> undo_;
};

template <typename Fn>
void GridGraph::for_each_run(geom::LayerId layer, Fn&& fn) const {
  const geom::Coord width = grid_->width();
  const std::size_t first_slot = layer_offset_[static_cast<std::size_t>(layer)];
  for (geom::Coord y = 0; y < grid_->height(); ++y) {
    const std::int32_t* row =
        owner_.get() + first_slot + row_offset_[static_cast<std::size_t>(y)];
    const std::size_t first_block =
        (first_slot >> kBlockSlotsShift) +
        (static_cast<std::size_t>(y) >> kBlockShift) * blocks_x_;
    std::int32_t open = 0;  // net + 1 of the run being extended, 0 = none
    geom::Coord lo = 0;
    for (std::size_t bx = 0; bx < blocks_x_; ++bx) {
      const auto x0 = static_cast<geom::Coord>(bx << kBlockShift);
      if (!blocks_touched_.test(first_block + bx)) {
        if (open != 0) fn(y, lo, x0 - 1, open - 1);
        open = 0;
        continue;
      }
      const std::int32_t* slots = row + (bx << kBlockSlotsShift);
      const geom::Coord n = std::min<geom::Coord>(kBlock, width - x0);
      for (geom::Coord i = 0; i < n; ++i) {
        if (slots[i] == open) continue;
        if (open != 0) fn(y, lo, x0 + i - 1, open - 1);
        open = slots[i];
        lo = x0 + i;
      }
    }
    if (open != 0) fn(y, lo, width - 1, open - 1);
  }
}

/// One end of a short polygon (paper Fig. 5(c)): a horizontal wire of `net`
/// cut by a stitching line, whose end node `end` lies within epsilon of the
/// line and carries a landing via. `piece` is the length in tracks of the
/// piece the line cuts off.
struct ShortPolygonEnd {
  geom::Point3 end;
  netlist::NetId net;
  geom::Coord piece;
};

/// Every short-polygon end of the grid in row-major order (layer, y, x; per
/// cutting line the wire's left end before its right). The only copy of the
/// short-polygon test: #SP is its size.
[[nodiscard]] std::vector<ShortPolygonEnd> short_polygon_ends(
    const GridGraph& grid);

}  // namespace mebl::detail
