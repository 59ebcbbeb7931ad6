#pragma once

// Routed-state serialization (DESIGN.md §12): the persistent form of a
// routed design — everything a ResidentDesign needs to resume incremental
// (ECO) rerouting in a later process, plus an integrity section.
//
// Plain-text format ("mebl_routed 2"), whitespace-separated like the MEBL1
// design format it embeds. Each routed fact is stored once; whatever follows
// from another record is rebuilt on load:
//
//   mebl_routed 2
//   design <nbytes>\n<MEBL1 text, exactly nbytes bytes>
//   paths <n>            one `p` record per subnet of the design: its tile
//                        list (empty = unrouted). The net and pins are the
//                        subnet's; a path must start on the tile of pin a
//                        and end on the tile of pin b.
//   runs <n>             one `r` record per run that assign::extract_runs
//                        rebuilds from the paths, in its order: only the
//                        assignment fields (layer, ripped, bad ends, track
//                        pieces). n must equal the rebuilt run count.
//   subnets <n>          one `s` record per subnet: method, committed grid
//                        nodes (routed exactly when non-empty)
//   demand_h/_v/_vertex  the committed global demand arrays — the
//                        integrity check: a loader reseeds a RoutingGraph
//                        from the paths and must reproduce these exactly,
//                        or the file is rejected as inconsistent
//   end
//
// The global wirelength and overflow totals are recomputed from the
// reseeded graph (GlobalRouter::seed). The writer emits fields in
// deterministic order, so saving the same state twice produces identical
// bytes.

#include <iosfwd>
#include <optional>
#include <string>

#include "assign/panel.hpp"
#include "detail/detailed_router.hpp"
#include "global/global_router.hpp"
#include "netlist/io.hpp"

namespace mebl::serve {

/// The serialized view of a routed design: the design itself plus the
/// three per-stage artifacts that carry routed state. (Metrics, demand and
/// the global totals are derived: metrics recompute from the occupancy,
/// demand and totals reseed from the paths.)
struct RoutedState {
  netlist::Design design;
  global::GlobalResult global;
  assign::RoutePlan plan;
  detail::DetailedResult detail;
};

/// Serialize `state`, reading the committed demand arrays for the
/// integrity section from `graph` (which must carry exactly the demand of
/// state.global — the resident router's graph).
void write_routed_state(std::ostream& out, const RoutedState& state,
                        const global::RoutingGraph& graph);

/// Parse a routed-state document; std::nullopt on malformed input (the
/// reason is reported through util::log_warn). The returned plan is whole
/// (extracted runs plus their saved assignment); the global totals are
/// left zero. The demand integrity section is parsed and checked by
/// verify_demand — callers reseed a RoutingGraph from the returned paths
/// (which also recomputes the totals) and hand it back.
struct LoadedState {
  RoutedState state;
  std::vector<int> h_demand, v_demand, vertex_demand;  ///< saved arrays
};

[[nodiscard]] std::optional<LoadedState> read_routed_state(std::istream& in);

/// True iff `graph`'s demand arrays equal the saved ones — the load-time
/// integrity check that the paths and the demand agree.
[[nodiscard]] bool verify_demand(const LoadedState& loaded,
                                 const global::RoutingGraph& graph);

bool save_routed_state(const std::string& path, const RoutedState& state,
                       const global::RoutingGraph& graph);
[[nodiscard]] std::optional<LoadedState> load_routed_state(
    const std::string& path);

}  // namespace mebl::serve
