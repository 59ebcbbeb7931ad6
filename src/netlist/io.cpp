#include "netlist/io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "util/log.hpp"

namespace mebl::netlist {

namespace {

/// Largest accepted layout extent per axis, in tracks: 3.6x the widest
/// ISCAS die at full scale (S38584@full_scale, 17 990 x 9 360 tracks; the
/// MCNC Struct and Primary dies are wider than the cap at full scale). A
/// header is a few bytes, but the stitch plan, the tile grid and the detail
/// grid all grow with the extent, so an unchecked one makes a tiny hostile
/// file allocate without bound.
constexpr geom::Coord kMaxExtent = 1 << 16;

/// Largest accepted routing-layer count: the paper's stacks have 3 and 6
/// layers; the detail grid grows linearly with the count.
constexpr int kMaxRoutingLayers = 16;

/// Work bounds. The per-axis caps above still multiply out: 65 536 x 65 536
/// tracks at tile size 1 is 4.3 G tiles and, on 16 layers, 68.7 G detail
/// nodes, which a route cannot allocate. The largest generated design
/// within the extent cap is Risc1@full_scale: 15 690 x 15 690 tracks on
/// 6 layers, 523 x 523 tiles of 30 tracks and 1.48 G detail nodes. The
/// bounds leave it 4x headroom in tiles and in nodes.
constexpr std::int64_t kMaxTiles = 4 * (523LL * 523);
constexpr std::int64_t kMaxDetailNodes = 4 * (15690LL * 15690 * 6);

}  // namespace

void write_design(std::ostream& out, const Design& design) {
  const auto& grid = design.grid;
  const auto& stitch = grid.stitch();
  out << "mebl 1\n";
  out << "grid " << grid.width() << ' ' << grid.height() << ' '
      << grid.num_routing_layers() << ' ' << grid.tile_size() << '\n';
  // A uniform plan round-trips through its pitch; anything else is written
  // as an explicit line list.
  bool uniform = true;
  {
    geom::Coord expect = stitch.pitch();
    for (const geom::Coord x : stitch.lines()) {
      if (x != expect) {
        uniform = false;
        break;
      }
      expect += stitch.pitch();
    }
    if (uniform && !stitch.lines().empty() &&
        stitch.lines().front() != stitch.pitch())
      uniform = false;
  }
  if (uniform && !stitch.lines().empty()) {
    out << "stitch " << stitch.pitch() << ' ' << stitch.epsilon() << ' '
        << stitch.escape_halfwidth() << '\n';
  } else {
    out << "stitch_lines " << stitch.epsilon() << ' '
        << stitch.escape_halfwidth() << ' ' << stitch.lines().size();
    for (const geom::Coord x : stitch.lines()) out << ' ' << x;
    out << '\n';
  }
  for (const Net& net : design.netlist.nets()) {
    out << "net " << net.name << ' ' << net.pins.size();
    for (const PinId pin : net.pins) {
      const geom::Point p = design.netlist.pin(pin).pos;
      out << ' ' << p.x << ' ' << p.y;
    }
    out << '\n';
  }
}

bool save_design(const std::string& path, const Design& design) {
  std::ofstream out(path);
  if (!out) return false;
  write_design(out, design);
  return static_cast<bool>(out);
}

std::optional<Design> read_design(std::istream& in) {
  const auto fail = [](const char* why) -> std::optional<Design> {
    util::log_warn() << "read_design: " << why;
    return std::nullopt;
  };

  std::string word;
  int version = 0;
  if (!(in >> word >> version) || word != "mebl" || version != 1)
    return fail("missing or unsupported 'mebl <version>' header");

  geom::Coord width = 0, height = 0, tile = 0;
  int layers = 0;
  if (!(in >> word >> width >> height >> layers >> tile) || word != "grid" ||
      width <= 0 || height <= 0 || layers < 2 || tile <= 0)
    return fail("malformed 'grid' record");
  if (width > kMaxExtent || height > kMaxExtent)
    return fail("'grid' extent above the supported maximum");
  if (layers > kMaxRoutingLayers)
    return fail("'grid' layer count above the supported maximum");
  const auto tiles_along = [&](geom::Coord extent) {
    return static_cast<std::int64_t>((extent + tile - 1) / tile);
  };
  if (tiles_along(width) * tiles_along(height) > kMaxTiles)
    return fail("'grid' tile count above the supported maximum");
  if (static_cast<std::int64_t>(width) * height * layers > kMaxDetailNodes)
    return fail("'grid' detail node count above the supported maximum");

  if (!(in >> word)) return fail("missing stitch record");
  std::optional<grid::StitchPlan> plan;
  if (word == "stitch") {
    geom::Coord pitch = 0, epsilon = 0, escape = 0;
    if (!(in >> pitch >> epsilon >> escape) || pitch <= 0 || epsilon < 0 ||
        escape < 0)
      return fail("malformed 'stitch' record");
    plan = grid::StitchPlan(width, pitch, epsilon, escape);
  } else if (word == "stitch_lines") {
    geom::Coord epsilon = 0, escape = 0;
    std::size_t count = 0;
    if (!(in >> epsilon >> escape >> count) || epsilon < 0 || escape < 0)
      return fail("malformed 'stitch_lines' record");
    // A written plan's lines are distinct and lie strictly inside
    // (0, width), so a longer list is malformed.
    if (count >= static_cast<std::size_t>(width))
      return fail("'stitch_lines' count exceeds the layout width");
    std::vector<geom::Coord> lines;
    for (std::size_t i = 0; i < count; ++i) {
      geom::Coord x = 0;
      if (!(in >> x)) return fail("truncated 'stitch_lines' record");
      lines.push_back(x);
    }
    plan = grid::StitchPlan::from_lines(width, std::move(lines), epsilon,
                                        escape);
  } else {
    return fail("expected 'stitch' or 'stitch_lines'");
  }

  Design design{grid::RoutingGrid(width, height, layers, tile, *plan),
                Netlist{}};
  while (in >> word) {
    if (word != "net") return fail("expected 'net' record");
    std::string name;
    std::size_t pins = 0;
    if (!(in >> name >> pins)) return fail("malformed 'net' record");
    const NetId id = design.netlist.add_net(std::move(name));
    for (std::size_t i = 0; i < pins; ++i) {
      geom::Point p;
      if (!(in >> p.x >> p.y)) return fail("truncated pin list");
      if (!design.grid.in_bounds(p)) return fail("pin out of bounds");
      design.netlist.add_pin(id, p);
    }
  }
  return design;
}

std::optional<Design> load_design(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    util::log_warn() << "load_design: cannot open " << path;
    return std::nullopt;
  }
  return read_design(in);
}

}  // namespace mebl::netlist
