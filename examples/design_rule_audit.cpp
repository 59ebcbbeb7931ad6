// Domain example: an MEBL design-rule audit. Routes a circuit, then walks
// the routed geometry and reports every stitch-related violation with its
// exact location and classification — the kind of signoff report a fab
// would want before committing a layout to a multi-beam writer.
// Usage: design_rule_audit [circuit-name]

#include <iostream>
#include <string>
#include <vector>

#include "bench_suite/circuit_generator.hpp"
#include "core/stitch_router.hpp"
#include "eval/yield.hpp"

namespace {

using namespace mebl;

struct Finding {
  std::string kind;
  geom::Point3 where;
};

std::vector<Finding> audit(const detail::GridGraph& grid) {
  const auto& rg = grid.routing_grid();
  const auto& stitch = rg.stitch();
  std::vector<Finding> findings;

  for (geom::LayerId l = 0; l < rg.num_layers(); ++l) {
    const auto above = static_cast<geom::LayerId>(l + 1);
    const bool vertical =
        l >= 1 && rg.layer_dir(l) == geom::Orientation::kVertical;
    grid.for_each_run(l, [&](geom::Coord y, geom::Coord lo, geom::Coord hi,
                             netlist::NetId net) {
      for (geom::Coord x = lo; x <= hi; ++x) {
        if (!stitch.is_stitch_column(x)) continue;
        // Via constraint.
        if (above < rg.num_layers() && grid.owner({x, y, above}) == net)
          findings.push_back({"via-on-stitch-line (fixed pin)", {x, y, l}});
        // Vertical routing constraint (an actual vertical *wire* exists
        // only on vertical layers; stacked horizontal wires on adjacent
        // rows may legally cross a line).
        if (vertical && y + 1 < rg.height() &&
            grid.owner({x, y + 1, l}) == net)
          findings.push_back({"VERTICAL-WIRE-ON-LINE (hard violation!)",
                              {x, y, l}});
      }
    });
  }

  // Short polygons, reported per wire end.
  for (const auto& sp : detail::short_polygon_ends(grid))
    findings.push_back({"short-polygon (soft)", sp.end});
  return findings;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "S9234";
  const auto* spec = bench_suite::find_spec(name);
  if (spec == nullptr) {
    std::cerr << "unknown circuit '" << name << "'\n";
    return 1;
  }
  const auto circuit = bench_suite::generate_circuit(*spec, {}, 20130602);

  core::StitchAwareRouter router(circuit.grid, circuit.netlist,
                                 core::RouterConfig::stitch_aware());
  const auto result = router.run();
  const auto findings = audit(*result.grid);

  int hard = 0, vias = 0, shorts = 0;
  for (const auto& f : findings) {
    if (f.kind.rfind("VERTICAL", 0) == 0)
      ++hard;
    else if (f.kind.rfind("via", 0) == 0)
      ++vias;
    else
      ++shorts;
  }

  const auto yield_report = eval::estimate_yield(*result.grid);
  std::cout << "MEBL design-rule audit for " << spec->name << "\n"
            << "  routed nets          : " << result.metrics.routed_nets
            << "/" << result.metrics.total_nets << "\n"
            << "  hard violations      : " << hard << " (must be 0)\n"
            << "  vias on lines (pins) : " << vias << "\n"
            << "  short polygons       : " << shorts << "\n"
            << "  expected defects     : " << yield_report.expected_defects
            << "\n"
            << "  estimated yield      : " << 100.0 * yield_report.yield
            << "%\n";
  const int show = std::min<std::size_t>(10, findings.size());
  for (int i = 0; i < show; ++i)
    std::cout << "    " << findings[static_cast<std::size_t>(i)].kind
              << " at (" << findings[static_cast<std::size_t>(i)].where.x
              << "," << findings[static_cast<std::size_t>(i)].where.y
              << ",L" << findings[static_cast<std::size_t>(i)].where.layer
              << ")\n";
  if (findings.size() > static_cast<std::size_t>(show))
    std::cout << "    ... and " << findings.size() - show << " more\n";
  return hard == 0 ? 0 : 1;
}
