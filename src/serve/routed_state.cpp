#include "serve/routed_state.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/log.hpp"

namespace mebl::serve {

namespace {

void write_demand(std::ostream& out, const char* name,
                  const std::vector<int>& values) {
  out << name << ' ' << values.size();
  for (const int v : values) out << ' ' << v;
  out << '\n';
}

std::vector<int> collect_h_demand(const global::RoutingGraph& graph) {
  std::vector<int> values;
  values.reserve(static_cast<std::size_t>(graph.tiles_y()) *
                 (graph.tiles_x() - 1));
  for (int ty = 0; ty < graph.tiles_y(); ++ty)
    for (int tx = 0; tx + 1 < graph.tiles_x(); ++tx)
      values.push_back(graph.h_demand(tx, ty));
  return values;
}

std::vector<int> collect_v_demand(const global::RoutingGraph& graph) {
  std::vector<int> values;
  values.reserve(static_cast<std::size_t>(graph.tiles_x()) *
                 (graph.tiles_y() - 1));
  for (int ty = 0; ty + 1 < graph.tiles_y(); ++ty)
    for (int tx = 0; tx < graph.tiles_x(); ++tx)
      values.push_back(graph.v_demand(tx, ty));
  return values;
}

std::vector<int> collect_vertex_demand(const global::RoutingGraph& graph) {
  std::vector<int> values;
  values.reserve(static_cast<std::size_t>(graph.tiles_x()) * graph.tiles_y());
  for (int ty = 0; ty < graph.tiles_y(); ++ty)
    for (int tx = 0; tx < graph.tiles_x(); ++tx)
      values.push_back(graph.vertex_demand(tx, ty));
  return values;
}

/// A demand array of exactly `size` entries, the size the embedded
/// design's tile grid fixes. The values are read one at a time, so memory
/// grows only with what the stream really holds.
std::optional<std::vector<int>> read_demand(std::istream& in,
                                            const std::string& expect,
                                            std::size_t size) {
  std::string word;
  std::size_t count = 0;
  if (!(in >> word >> count) || word != expect || count != size)
    return std::nullopt;
  std::vector<int> values;
  for (std::size_t i = 0; i < count; ++i) {
    int v = 0;
    if (!(in >> v)) return std::nullopt;
    values.push_back(v);
  }
  return values;
}

}  // namespace

void write_routed_state(std::ostream& out, const RoutedState& state,
                        const global::RoutingGraph& graph) {
  out << "mebl_routed 1\n";

  std::ostringstream design_text;
  netlist::write_design(design_text, state.design);
  const std::string design = design_text.str();
  out << "design " << design.size() << '\n' << design;

  out << "paths " << state.global.paths.size() << '\n';
  for (const global::TilePath& path : state.global.paths) {
    out << "p " << path.net << ' ' << path.pin_a.x << ' ' << path.pin_a.y
        << ' ' << path.pin_b.x << ' ' << path.pin_b.y << ' '
        << (path.routed ? 1 : 0) << ' ' << path.tiles.size();
    for (const grid::GCellId tile : path.tiles)
      out << ' ' << tile.tx << ' ' << tile.ty;
    out << '\n';
  }

  out << "runs " << state.plan.runs.size() << '\n';
  for (const assign::GlobalRun& run : state.plan.runs) {
    out << "r " << run.net << ' ' << run.path_index << ' '
        << (run.dir == geom::Orientation::kVertical ? 'V' : 'H') << ' '
        << run.fixed_tile << ' ' << run.span.lo << ' ' << run.span.hi << ' '
        << run.lo_continuation << ' ' << run.hi_continuation << ' '
        << run.layer << ' ' << (run.ripped ? 1 : 0) << ' ' << run.bad_ends
        << ' ' << run.pieces.size();
    for (const auto& [span, track] : run.pieces)
      out << ' ' << span.lo << ' ' << span.hi << ' ' << track;
    out << '\n';
  }

  out << "path_runs " << state.plan.runs_of_path.size() << '\n';
  for (const std::vector<std::size_t>& runs : state.plan.runs_of_path) {
    out << "q " << runs.size();
    for (const std::size_t run : runs) out << ' ' << run;
    out << '\n';
  }

  out << "subnets " << state.detail.subnet_nodes.size() << '\n';
  for (std::size_t i = 0; i < state.detail.subnet_nodes.size(); ++i) {
    const auto& nodes = state.detail.subnet_nodes[i];
    out << "s " << (state.detail.subnet_routed[i] ? 1 : 0) << ' '
        << static_cast<int>(state.detail.subnet_method[i]) << ' '
        << nodes.size();
    for (const geom::Point3 p : nodes)
      out << ' ' << p.x << ' ' << p.y << ' ' << p.layer;
    out << '\n';
  }

  out << "detail_totals " << state.detail.routed << ' ' << state.detail.failed
      << ' ' << state.detail.planned_realized << ' '
      << state.detail.pattern_routed << ' ' << state.detail.astar_routed << ' '
      << state.detail.ripup_rescued << ' ' << state.detail.sp_cleanup_nets
      << '\n';
  out << "global_totals " << state.global.wirelength << ' '
      << state.global.total_vertex_overflow << ' '
      << state.global.max_vertex_overflow << ' '
      << state.global.total_edge_overflow << '\n';

  write_demand(out, "demand_h", collect_h_demand(graph));
  write_demand(out, "demand_v", collect_v_demand(graph));
  write_demand(out, "demand_vertex", collect_vertex_demand(graph));
  out << "end\n";
}

std::optional<LoadedState> read_routed_state(std::istream& in) {
  const auto fail = [](const char* why) -> std::optional<LoadedState> {
    util::log_warn() << "read_routed_state: " << why;
    return std::nullopt;
  };

  std::string word;
  int version = 0;
  if (!(in >> word >> version) || word != "mebl_routed" || version != 1)
    return fail("missing or unsupported 'mebl_routed <version>' header");

  std::size_t design_bytes = 0;
  if (!(in >> word >> design_bytes) || word != "design")
    return fail("malformed 'design' record");
  in.get();  // the newline terminating the design header
  // Read in bounded chunks: the declared size is untrusted, so the buffer
  // grows only as far as the stream really reaches.
  std::string design_text;
  for (std::size_t left = design_bytes; left > 0;) {
    char chunk[4096];
    const std::size_t want = std::min(left, sizeof(chunk));
    if (!in.read(chunk, static_cast<std::streamsize>(want)))
      return fail("truncated embedded design");
    design_text.append(chunk, want);
    left -= want;
  }
  std::istringstream design_in(design_text);
  auto design = netlist::read_design(design_in);
  if (!design) return fail("embedded design does not parse");

  LoadedState loaded{RoutedState{std::move(*design), {}, {}, {}}, {}, {}, {}};

  // A tile path is 4-connected inside the design's tile grid; reseeding the
  // global demand indexes its edges without further checks.
  const grid::RoutingGrid& rg = loaded.state.design.grid;
  const auto tile_ok = [&](const grid::GCellId& tile,
                           const grid::GCellId* prev) {
    if (tile.tx < 0 || tile.tx >= rg.tiles_x() || tile.ty < 0 ||
        tile.ty >= rg.tiles_y())
      return false;
    return prev == nullptr ||
           std::abs(tile.tx - prev->tx) + std::abs(tile.ty - prev->ty) == 1;
  };

  std::size_t count = 0;
  if (!(in >> word >> count) || word != "paths")
    return fail("malformed 'paths' record");
  // Record counts are untrusted: every list below grows one parsed record
  // at a time instead of being pre-sized from its count.
  for (std::size_t i = 0; i < count; ++i) {
    global::TilePath& path = loaded.state.global.paths.emplace_back();
    int routed = 0;
    std::size_t tiles = 0;
    if (!(in >> word >> path.net >> path.pin_a.x >> path.pin_a.y >>
          path.pin_b.x >> path.pin_b.y >> routed >> tiles) ||
        word != "p")
      return fail("malformed 'p' record");
    path.routed = routed != 0;
    for (std::size_t t = 0; t < tiles; ++t) {
      grid::GCellId tile;
      if (!(in >> tile.tx >> tile.ty)) return fail("truncated tile path");
      if (!tile_ok(tile, path.tiles.empty() ? nullptr : &path.tiles.back()))
        return fail("tile path leaves the grid or is not 4-connected");
      path.tiles.push_back(tile);
    }
  }

  if (!(in >> word >> count) || word != "runs")
    return fail("malformed 'runs' record");
  for (std::size_t i = 0; i < count; ++i) {
    assign::GlobalRun& run = loaded.state.plan.runs.emplace_back();
    char dir = 'V';
    int ripped = 0;
    std::size_t pieces = 0;
    if (!(in >> word >> run.net >> run.path_index >> dir >> run.fixed_tile >>
          run.span.lo >> run.span.hi >> run.lo_continuation >>
          run.hi_continuation >> run.layer >> ripped >> run.bad_ends >>
          pieces) ||
        word != "r" || (dir != 'V' && dir != 'H'))
      return fail("malformed 'r' record");
    run.dir = dir == 'V' ? geom::Orientation::kVertical
                         : geom::Orientation::kHorizontal;
    run.ripped = ripped != 0;
    for (std::size_t k = 0; k < pieces; ++k) {
      auto& [span, track] = run.pieces.emplace_back();
      if (!(in >> span.lo >> span.hi >> track))
        return fail("truncated piece list");
    }
  }

  if (!(in >> word >> count) || word != "path_runs")
    return fail("malformed 'path_runs' record");
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<std::size_t>& runs =
        loaded.state.plan.runs_of_path.emplace_back();
    std::size_t n = 0;
    if (!(in >> word >> n) || word != "q") return fail("malformed 'q' record");
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t run = 0;
      if (!(in >> run) || run >= loaded.state.plan.runs.size())
        return fail("run index out of range");
      runs.push_back(run);
    }
  }

  if (!(in >> word >> count) || word != "subnets")
    return fail("malformed 'subnets' record");
  auto& detail = loaded.state.detail;
  for (std::size_t i = 0; i < count; ++i) {
    int routed = 0, method = 0;
    std::size_t nodes = 0;
    if (!(in >> word >> routed >> method >> nodes) || word != "s" ||
        method < 0 || method > 2)
      return fail("malformed 's' record");
    detail.subnet_routed.push_back(routed != 0);
    detail.subnet_method.push_back(static_cast<detail::RouteMethod>(method));
    std::vector<geom::Point3>& points = detail.subnet_nodes.emplace_back();
    for (std::size_t k = 0; k < nodes; ++k) {
      geom::Point3& p = points.emplace_back();
      if (!(in >> p.x >> p.y >> p.layer)) return fail("truncated node list");
    }
  }

  if (!(in >> word >> detail.routed >> detail.failed >>
        detail.planned_realized >> detail.pattern_routed >>
        detail.astar_routed >> detail.ripup_rescued >>
        detail.sp_cleanup_nets) ||
      word != "detail_totals")
    return fail("malformed 'detail_totals' record");
  auto& global = loaded.state.global;
  if (!(in >> word >> global.wirelength >> global.total_vertex_overflow >>
        global.max_vertex_overflow >> global.total_edge_overflow) ||
      word != "global_totals")
    return fail("malformed 'global_totals' record");

  const auto tiles_x =
      static_cast<std::size_t>(loaded.state.design.grid.tiles_x());
  const auto tiles_y =
      static_cast<std::size_t>(loaded.state.design.grid.tiles_y());
  auto h = read_demand(in, "demand_h", (tiles_x - 1) * tiles_y);
  if (!h) return fail("malformed 'demand_h' record");
  auto v = read_demand(in, "demand_v", tiles_x * (tiles_y - 1));
  if (!v) return fail("malformed 'demand_v' record");
  auto vertex = read_demand(in, "demand_vertex", tiles_x * tiles_y);
  if (!vertex) return fail("malformed 'demand_vertex' record");
  loaded.h_demand = std::move(*h);
  loaded.v_demand = std::move(*v);
  loaded.vertex_demand = std::move(*vertex);

  if (!(in >> word) || word != "end") return fail("missing 'end' marker");
  return loaded;
}

bool verify_demand(const LoadedState& loaded,
                   const global::RoutingGraph& graph) {
  return loaded.h_demand == collect_h_demand(graph) &&
         loaded.v_demand == collect_v_demand(graph) &&
         loaded.vertex_demand == collect_vertex_demand(graph);
}

bool save_routed_state(const std::string& path, const RoutedState& state,
                       const global::RoutingGraph& graph) {
  std::ofstream out(path);
  if (!out) return false;
  write_routed_state(out, state, graph);
  return static_cast<bool>(out);
}

std::optional<LoadedState> load_routed_state(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    util::log_warn() << "load_routed_state: cannot open " << path;
    return std::nullopt;
  }
  return read_routed_state(in);
}

}  // namespace mebl::serve
