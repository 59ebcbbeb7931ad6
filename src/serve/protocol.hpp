#pragma once

// mebl::serve wire protocol — line-delimited JSON over a local stream
// socket (DESIGN.md §12).
//
// Every message is one JSON object on one line, terminated by '\n'. The
// request/response structs below are the typed view; the codec round-trips
// them through report::Json, so the wire form inherits the reporting
// layer's determinism (name-sorted members, kind-stable numbers). The
// compact one-line dump exists because Json::dump pretty-prints; parsing
// accepts either form.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "geom/point.hpp"
#include "netlist/netlist.hpp"
#include "report/json.hpp"

namespace mebl::serve {

/// Operations a client can request. kPing / kStatus / kCancel / kMetrics /
/// kDump are answered inline by the I/O thread; everything else becomes a
/// queued job.
enum class Op : std::uint8_t {
  kPing,       ///< liveness probe, answered with an ack
  kLoad,       ///< register a design (inline MEBL1 text or file path)
  kRoute,      ///< full route of a resident design
  kEco,        ///< incremental reroute of listed nets / one pin move
  kCancel,     ///< cancel a queued or running job by request id
  kStatus,     ///< queue depth, resident designs, jobs completed
  kSaveState,  ///< write a resident design's routed state to a file
  kLoadState,  ///< make a design resident from a routed-state file
  kShutdown,   ///< drain and stop the server
  kMetrics,    ///< Prometheus text exposition of the telemetry registry
  kDump,       ///< write a flight-recorder dump (`path` overrides the default)
};

[[nodiscard]] const char* op_name(Op op) noexcept;
[[nodiscard]] std::optional<Op> op_from_name(std::string_view name) noexcept;

/// One pin relocation inside an ECO: move `pin` to `to`. A request may
/// carry several, applied in order (later moves see the positions earlier
/// ones produced).
struct PinMoveSpec {
  netlist::PinId pin = -1;
  geom::Point to;

  friend bool operator==(const PinMoveSpec& a, const PinMoveSpec& b) {
    return a.pin == b.pin && a.to == b.to;
  }
};

/// One client request. Fields beyond `op` and `id` are op-specific; unused
/// fields stay at their defaults and are omitted from the wire form.
struct Request {
  Op op = Op::kPing;
  /// Client-chosen correlation id; every response to this request echoes
  /// it. Ids are scoped per connection.
  std::int64_t id = 0;
  /// Resident-design key (kLoad names it; kRoute/kEco/kSaveState/
  /// kLoadState look it up).
  std::string design;
  /// Inline MEBL1 design text (kLoad), alternative to `path`.
  std::string design_text;
  /// File path: the design file (kLoad) or the routed-state file
  /// (kSaveState / kLoadState).
  std::string path;
  /// Queue priority; higher runs first, FIFO within a priority.
  int priority = 0;
  /// Wall-clock budget for the job measured from enqueue; 0 = none. On
  /// expiry the job stops with StopReason::kDeadline.
  double deadline_seconds = 0.0;
  /// kEco: nets to reroute, by id and/or by name (names are resolved
  /// against the resident design's netlist).
  std::vector<netlist::NetId> nets;
  std::vector<std::string> net_names;
  /// kEco: pin moves, applied in order. The coalescing dispatcher unions
  /// the moves of batched ECO requests here. On the wire they are the
  /// `moves` list of {pin, x, y} objects.
  std::vector<PinMoveSpec> moves;
  /// kEco: run the bit-identity check — replay the same ECO on a resident
  /// rebuilt from the serialized pre-ECO state and compare canonical
  /// report quality blocks byte for byte.
  bool verify = false;
  /// kCancel: the request id of the job to cancel.
  std::int64_t cancel_id = -1;
};

/// One server message. `type` is "ack", "progress", "done", "cancelled" or
/// "error"; `payload` carries the op-specific body (a RunReport JSON for
/// route/eco "done" messages, queue statistics for status, ...).
struct Response {
  std::string type;
  std::int64_t id = 0;
  std::string error;  ///< set when type == "error"
  report::Json payload;
};

[[nodiscard]] report::Json to_json(const Request& request);
[[nodiscard]] report::Json to_json(const Response& response);
[[nodiscard]] std::optional<Request> parse_request(const report::Json& json);
[[nodiscard]] std::optional<Response> parse_response(const report::Json& json);

/// Compact single-line JSON dump (no newlines anywhere), the wire form.
[[nodiscard]] std::string dump_line(const report::Json& json);

/// Encode a message as one wire line including the trailing '\n'.
[[nodiscard]] std::string encode(const Request& request);
[[nodiscard]] std::string encode(const Response& response);

/// Parse one wire line (with or without the trailing '\n').
[[nodiscard]] std::optional<Request> decode_request(std::string_view line);
[[nodiscard]] std::optional<Response> decode_response(std::string_view line);

}  // namespace mebl::serve
