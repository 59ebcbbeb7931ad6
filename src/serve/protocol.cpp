#include "serve/protocol.hpp"

#include <array>
#include <cstdio>

namespace mebl::serve {

using report::Json;

namespace {

constexpr std::array<const char*, 11> kOpNames = {
    "ping",       "load",       "route",    "eco",      "cancel",
    "status",     "save_state", "load_state", "shutdown", "metrics",
    "dump"};

std::int64_t get_int(const Json& json, std::string_view key,
                     std::int64_t fallback = 0) {
  const Json* value = json.get(key);
  return value != nullptr && value->is_number() ? value->as_int() : fallback;
}

double get_double(const Json& json, std::string_view key) {
  const Json* value = json.get(key);
  return value != nullptr && value->is_number() ? value->as_double() : 0.0;
}

std::string get_string(const Json& json, std::string_view key) {
  const Json* value = json.get(key);
  return value != nullptr && value->kind() == Json::Kind::kString
             ? value->as_string()
             : std::string{};
}

bool get_bool(const Json& json, std::string_view key) {
  const Json* value = json.get(key);
  return value != nullptr && value->kind() == Json::Kind::kBool &&
         value->as_bool();
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_compact(const Json& json, std::string& out) {
  switch (json.kind()) {
    case Json::Kind::kNull: out += "null"; break;
    case Json::Kind::kBool: out += json.as_bool() ? "true" : "false"; break;
    case Json::Kind::kInt: out += std::to_string(json.as_int()); break;
    case Json::Kind::kDouble: out += report::format_double(json.as_double());
      break;
    case Json::Kind::kString: append_escaped(out, json.as_string()); break;
    case Json::Kind::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : json.items()) {
        if (!first) out.push_back(',');
        first = false;
        dump_compact(item, out);
      }
      out.push_back(']');
      break;
    }
    case Json::Kind::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : json.members()) {
        if (!first) out.push_back(',');
        first = false;
        append_escaped(out, key);
        out.push_back(':');
        dump_compact(value, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

const char* op_name(Op op) noexcept {
  const auto index = static_cast<std::size_t>(op);
  return index < kOpNames.size() ? kOpNames[index] : "?";
}

std::optional<Op> op_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kOpNames.size(); ++i)
    if (name == kOpNames[i]) return static_cast<Op>(i);
  return std::nullopt;
}

Json to_json(const Request& request) {
  Json root = Json::object();
  root["op"] = op_name(request.op);
  root["id"] = request.id;
  if (!request.design.empty()) root["design"] = request.design;
  if (!request.design_text.empty()) root["design_text"] = request.design_text;
  if (!request.path.empty()) root["path"] = request.path;
  if (request.priority != 0) root["priority"] = request.priority;
  if (request.deadline_seconds > 0.0)
    root["deadline_seconds"] = request.deadline_seconds;
  if (!request.nets.empty()) {
    Json nets = Json::array();
    for (const netlist::NetId net : request.nets)
      nets.push_back(static_cast<std::int64_t>(net));
    root["nets"] = std::move(nets);
  }
  if (!request.net_names.empty()) {
    Json names = Json::array();
    for (const std::string& name : request.net_names) names.push_back(name);
    root["net_names"] = std::move(names);
  }
  if (!request.moves.empty()) {
    Json moves = Json::array();
    for (const PinMoveSpec& move : request.moves) {
      Json entry = Json::object();
      entry["pin"] = static_cast<std::int64_t>(move.pin);
      entry["x"] = static_cast<std::int64_t>(move.to.x);
      entry["y"] = static_cast<std::int64_t>(move.to.y);
      moves.push_back(std::move(entry));
    }
    root["moves"] = std::move(moves);
  }
  if (request.verify) root["verify"] = true;
  if (request.cancel_id >= 0) root["cancel_id"] = request.cancel_id;
  return root;
}

Json to_json(const Response& response) {
  Json root = Json::object();
  root["type"] = response.type;
  root["id"] = response.id;
  if (!response.error.empty()) root["error"] = response.error;
  if (!response.payload.is_null()) root["payload"] = response.payload;
  return root;
}

std::optional<Request> parse_request(const Json& json) {
  if (json.kind() != Json::Kind::kObject) return std::nullopt;
  const auto op = op_from_name(get_string(json, "op"));
  if (!op) return std::nullopt;
  Request request;
  request.op = *op;
  request.id = get_int(json, "id");
  request.design = get_string(json, "design");
  request.design_text = get_string(json, "design_text");
  request.path = get_string(json, "path");
  request.priority = static_cast<int>(get_int(json, "priority"));
  request.deadline_seconds = get_double(json, "deadline_seconds");
  if (const Json* nets = json.get("nets");
      nets != nullptr && nets->kind() == Json::Kind::kArray)
    for (const Json& item : nets->items())
      if (item.is_number())
        request.nets.push_back(static_cast<netlist::NetId>(item.as_int()));
  if (const Json* names = json.get("net_names");
      names != nullptr && names->kind() == Json::Kind::kArray)
    for (const Json& item : names->items())
      if (item.kind() == Json::Kind::kString)
        request.net_names.push_back(item.as_string());
  if (const Json* moves = json.get("moves");
      moves != nullptr && moves->kind() == Json::Kind::kArray)
    for (const Json& item : moves->items()) {
      if (item.kind() != Json::Kind::kObject) continue;
      PinMoveSpec move;
      move.pin = static_cast<netlist::PinId>(get_int(item, "pin", -1));
      move.to.x = static_cast<geom::Coord>(get_int(item, "x"));
      move.to.y = static_cast<geom::Coord>(get_int(item, "y"));
      request.moves.push_back(move);
    }
  request.verify = get_bool(json, "verify");
  request.cancel_id = get_int(json, "cancel_id", -1);
  return request;
}

std::optional<Response> parse_response(const Json& json) {
  if (json.kind() != Json::Kind::kObject) return std::nullopt;
  Response response;
  response.type = get_string(json, "type");
  if (response.type.empty()) return std::nullopt;
  response.id = get_int(json, "id");
  response.error = get_string(json, "error");
  if (const Json* payload = json.get("payload"))
    response.payload = *payload;
  return response;
}

std::string dump_line(const Json& json) {
  std::string out;
  dump_compact(json, out);
  return out;
}

std::string encode(const Request& request) {
  return dump_line(to_json(request)) + "\n";
}

std::string encode(const Response& response) {
  return dump_line(to_json(response)) + "\n";
}

std::optional<Request> decode_request(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.remove_suffix(1);
  const auto json = Json::parse(line);
  return json ? parse_request(*json) : std::nullopt;
}

std::optional<Response> decode_response(std::string_view line) {
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
    line.remove_suffix(1);
  const auto json = Json::parse(line);
  return json ? parse_response(*json) : std::nullopt;
}

}  // namespace mebl::serve
