#pragma once

// mebl::serve resident design — a routed design kept alive in memory for
// incremental (ECO) rerouting (DESIGN.md §12).
//
// After a full route (or a routed-state load) the resident holds the
// routing pipeline's live state: the occupancy grid, a GlobalRouter whose
// graph carries the committed demand of every routed path (with the
// CongestionIndex over it), and a DetailedRouter bound to the per-subnet
// geometry. An ECO then reroutes only a dirty closure instead of the whole
// design: the global closure comes from CongestionIndex (the targets plus
// every committed subnet still crossing an overflowed resource after the
// rip), layer/track assignment replans only the panels the closure
// touches, and detailed routing rips and reroutes only the affected nets
// against the untouched remainder.
//
// Bit-identity contract: the same ECO applied to a long-lived resident and
// to a resident rebuilt from the serialized pre-ECO state produces
// byte-identical canonical report quality blocks, because both run the
// identical index-ordered schedules on identical state. EcoRequest::verify
// runs exactly that check.

#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/stitch_router.hpp"
#include "report/report.hpp"
#include "serve/protocol.hpp"
#include "serve/routed_state.hpp"

namespace mebl::serve {

/// When an ECO's global dirty closure exceeds this fraction of all subnets,
/// incremental rerouting stops paying for itself; the ECO falls back to a
/// full-batch reroute of the whole design.
inline constexpr double kEcoFullFallbackFraction = 0.5;

/// One incremental-reroute request against a resident design.
struct EcoRequest {
  /// Nets to reroute, by id and/or by name (resolved against the resident
  /// netlist; unknown names are an error).
  std::vector<netlist::NetId> nets;
  std::vector<std::string> net_names;
  /// Pin moves: relocate each pin and reroute its net (plus any net whose
  /// wires occupy the destination). Applied in order; later moves see the
  /// positions earlier ones produced, so a batched (coalesced) ECO replays
  /// exactly like its member requests run back to back.
  std::vector<PinMoveSpec> pin_moves;
  /// Run the bit-identity check: replay the same ECO on a resident rebuilt
  /// from the serialized pre-ECO state and compare canonical quality
  /// blocks byte for byte.
  bool verify = false;
};

/// What one ECO (or full route) produced.
struct EcoOutcome {
  bool ok = false;
  std::string error;  ///< set when !ok
  report::RunReport report;
  /// The global dirty closure size (0 for full routes; for a full fallback,
  /// the closure that triggered it).
  std::size_t dirty_subnets = 0;
  /// The ECO exceeded kEcoFullFallbackFraction and re-routed everything.
  bool fallback_full = false;
  /// verify was requested, ran, and the canonical quality blocks matched.
  bool verified = false;
  /// verify was requested and the blocks differed (a determinism bug).
  bool verify_mismatch = false;
  bool cancelled = false;
  exec::StopReason stop_reason = exec::StopReason::kNone;
  /// Wall time of the incremental work itself (excludes the verify
  /// replay), the number the <25%-of-full-route acceptance gate reads.
  double seconds = 0.0;
};

/// The canonical quality block of a run report: the design / quality /
/// heatmaps / nets members of the canonical (timing-free) serialization,
/// as deterministic bytes. Two runs that routed identically compare equal
/// here even when their counters or wall times differ.
[[nodiscard]] std::string canonical_quality_block(
    const report::RunReport& report);

class ResidentDesign {
 public:
  explicit ResidentDesign(
      netlist::Design design,
      core::RouterConfig config = core::RouterConfig::stitch_aware());

  // The routers hold pointers into the members; the resident is pinned.
  ResidentDesign(const ResidentDesign&) = delete;
  ResidentDesign& operator=(const ResidentDesign&) = delete;

  /// Rebuild a resident from a routed-state document: parse, reseed the
  /// global demand from the paths and verify it against the saved arrays,
  /// re-claim the detailed geometry onto a fresh grid (rejecting
  /// conflicting claims), recompute metrics. nullptr on any inconsistency.
  [[nodiscard]] static std::unique_ptr<ResidentDesign> from_state(
      std::istream& in,
      core::RouterConfig config = core::RouterConfig::stitch_aware());

  /// Full route through the ordinary pipeline, then make the result
  /// resident. `pool`/`cancel` are the service's shared executor and the
  /// job's token (null = private pool / no external cancel); `observer`
  /// additionally sees the run's progress callbacks.
  EcoOutcome route_full(exec::ThreadPool* pool = nullptr,
                        exec::Cancellation* cancel = nullptr,
                        core::ProgressObserver* observer = nullptr);

  /// Incremental reroute; requires a routed() resident. See EcoRequest.
  EcoOutcome eco(const EcoRequest& request, exec::ThreadPool* pool = nullptr,
                 exec::Cancellation* cancel = nullptr);

  /// Serialize the resident routed state (see routed_state.hpp).
  bool save_state(std::ostream& out) const;
  bool save_state(const std::string& path) const;

  [[nodiscard]] bool routed() const noexcept { return routed_; }
  [[nodiscard]] const netlist::Design& design() const noexcept {
    return design_;
  }
  [[nodiscard]] const core::RoutingResult& result() const noexcept {
    return result_;
  }
  [[nodiscard]] const std::vector<netlist::Subnet>& subnets() const noexcept {
    return subnets_;
  }

 private:
  /// Point the resident routers at result_: seed the global graph from the
  /// routed paths, claim pins + geometry on the grid.
  void adopt_residency();

  /// Resolve ids + names into a sorted unique net list; empty + error set
  /// on failure.
  [[nodiscard]] std::vector<netlist::NetId> resolve_nets(
      const EcoRequest& request, std::string& error) const;

  netlist::Design design_;
  core::RouterConfig config_;
  std::vector<netlist::Subnet> subnets_;
  core::RoutingResult result_;
  std::unique_ptr<global::GlobalRouter> global_;
  std::unique_ptr<detail::DetailedRouter> detailed_;
  bool routed_ = false;
};

/// Name -> resident design cache with least-recently-used eviction, the
/// server's working set. Thread-safe (the I/O thread reads names() for
/// status while the dispatcher routes).
class DesignCache {
 public:
  explicit DesignCache(std::size_t capacity) : capacity_(capacity) {}

  /// Look up and touch (move to most-recently-used). nullptr when absent.
  [[nodiscard]] std::shared_ptr<ResidentDesign> get(const std::string& name);

  /// Insert or replace; evicts the least-recently-used entries beyond
  /// capacity. Returns the names evicted.
  std::vector<std::string> put(const std::string& name,
                               std::shared_ptr<ResidentDesign> design);

  void erase(const std::string& name);
  [[nodiscard]] std::vector<std::string> names() const;  ///< MRU first
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  using Entry = std::pair<std::string, std::shared_ptr<ResidentDesign>>;
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::list<Entry> entries_;  ///< front = most recently used
};

}  // namespace mebl::serve
