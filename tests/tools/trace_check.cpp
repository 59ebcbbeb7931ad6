// trace_check: validate the artifacts written by `mebl_route_cli --trace
// FILE --stats FILE`. Used by the `telemetry` ctest label as the parse half
// of the CLI smoke test:
//
//   trace_check <trace.json> <stats.json>
//
// The trace must be Chrome trace-event JSON with all four pipeline stage
// spans plus nested (depth > 0) per-net/per-panel spans; the stats dump
// must carry the counters the paper's tables are built from. The JSON
// parser below is deliberately minimal but complete (objects, arrays,
// strings with escapes, numbers, bools, null) so the test exercises a real
// parse, not a substring grep.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct Value;
using ValuePtr = std::shared_ptr<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<ValuePtr> array;
  std::map<std::string, ValuePtr> object;

  const Value* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : it->second.get();
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ValuePtr parse() {
    ValuePtr value = parse_value();
    skip_ws();
    if (value == nullptr || pos_ != text_.size()) return nullptr;
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t len = std::string(word).size();
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  ValuePtr parse_value() {
    skip_ws();
    if (pos_ >= text_.size()) return nullptr;
    const char c = text_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return parse_string();
    if (c == 't' || c == 'f') return parse_bool();
    if (c == 'n') {
      if (!literal("null")) return nullptr;
      return std::make_shared<Value>();
    }
    return parse_number();
  }

  ValuePtr parse_object() {
    if (!consume('{')) return nullptr;
    auto value = std::make_shared<Value>();
    value->kind = Value::Kind::kObject;
    skip_ws();
    if (consume('}')) return value;
    while (true) {
      ValuePtr key = parse_string();
      if (key == nullptr || !consume(':')) return nullptr;
      ValuePtr member = parse_value();
      if (member == nullptr) return nullptr;
      value->object[key->string] = std::move(member);
      if (consume(',')) continue;
      if (consume('}')) return value;
      return nullptr;
    }
  }

  ValuePtr parse_array() {
    if (!consume('[')) return nullptr;
    auto value = std::make_shared<Value>();
    value->kind = Value::Kind::kArray;
    skip_ws();
    if (consume(']')) return value;
    while (true) {
      ValuePtr element = parse_value();
      if (element == nullptr) return nullptr;
      value->array.push_back(std::move(element));
      if (consume(',')) continue;
      if (consume(']')) return value;
      return nullptr;
    }
  }

  ValuePtr parse_string() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') return nullptr;
    ++pos_;
    auto value = std::make_shared<Value>();
    value->kind = Value::Kind::kString;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return nullptr;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':  // keep it simple: skip the four hex digits
            if (pos_ + 4 > text_.size()) return nullptr;
            pos_ += 4;
            c = '?';
            break;
          default: return nullptr;
        }
      }
      value->string.push_back(c);
    }
    if (pos_ >= text_.size()) return nullptr;
    ++pos_;  // closing quote
    return value;
  }

  ValuePtr parse_bool() {
    auto value = std::make_shared<Value>();
    value->kind = Value::Kind::kBool;
    if (literal("true")) {
      value->boolean = true;
      return value;
    }
    if (literal("false")) return value;
    return nullptr;
  }

  ValuePtr parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return nullptr;
    auto value = std::make_shared<Value>();
    value->kind = Value::Kind::kNumber;
    value->number = std::stod(text_.substr(start, pos_ - start));
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

ValuePtr load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_check: cannot open " << path << "\n";
    return nullptr;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  ValuePtr value = Parser(text).parse();
  if (value == nullptr)
    std::cerr << "trace_check: " << path << " is not valid JSON\n";
  return value;
}

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::cerr << "trace_check: FAIL: " << what << "\n";
  ++g_failures;
}

void check_trace(const Value& root) {
  const Value* events = root.get("traceEvents");
  check(events != nullptr && events->kind == Value::Kind::kArray,
        "trace has a traceEvents array");
  if (events == nullptr || events->kind != Value::Kind::kArray) return;
  check(!events->array.empty(), "traceEvents is non-empty");

  std::map<std::string, int> span_counts;
  int max_depth = 0;
  for (const auto& event : events->array) {
    const Value* name = event->get("name");
    const Value* ph = event->get("ph");
    const Value* ts = event->get("ts");
    const Value* dur = event->get("dur");
    const Value* pid = event->get("pid");
    const Value* tid = event->get("tid");
    check(name != nullptr && name->kind == Value::Kind::kString,
          "event has a string name");
    check(ph != nullptr && ph->string == "X",
          "event is a complete ('X') span");
    check(ts != nullptr && ts->kind == Value::Kind::kNumber &&
              ts->number >= 0.0,
          "event has a numeric ts");
    check(dur != nullptr && dur->kind == Value::Kind::kNumber &&
              dur->number >= 0.0,
          "event has a numeric dur");
    check(pid != nullptr && pid->kind == Value::Kind::kNumber,
          "event has a pid");
    check(tid != nullptr && tid->kind == Value::Kind::kNumber,
          "event has a tid");
    if (name != nullptr) ++span_counts[name->string];
    if (const Value* args = event->get("args")) {
      if (const Value* depth = args->get("depth"))
        max_depth = std::max(max_depth, static_cast<int>(depth->number));
    }
    if (g_failures > 0) break;  // one malformed event is enough detail
  }

  // All four pipeline stages appear as top-level spans...
  for (const char* stage : {"pipeline.global", "pipeline.layer_assign",
                            "pipeline.track_assign", "pipeline.detail"})
    check(span_counts[stage] == 1,
          std::string("exactly one span named ") + stage);
  // ...with per-net / per-panel work nested below them.
  check(span_counts["detail.subnet"] > 0, "nested detail.subnet spans exist");
  check(span_counts["assign.track.panel"] > 0,
        "nested assign.track.panel spans exist");
  check(max_depth >= 2, "spans nest at least two levels deep");
}

void check_stats(const Value& root) {
  const Value* counters = root.get("counters");
  check(counters != nullptr && counters->kind == Value::Kind::kObject,
        "stats has a counters object");
  if (counters == nullptr) return;
  for (const char* key :
       {"detail.ripup.rescued", "detail.astar.expansions",
        "assign.track.ilp_nodes", "detail.subnets.failed"}) {
    const Value* counter = counters->get(key);
    check(counter != nullptr && counter->kind == Value::Kind::kNumber,
          std::string("stats counter present: ") + key);
  }
  const Value* histograms = root.get("histograms");
  check(histograms != nullptr && histograms->kind == Value::Kind::kObject,
        "stats has a histograms object");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: trace_check <trace.json> <stats.json>\n";
    return 2;
  }
  const ValuePtr trace = load_json(argv[1]);
  const ValuePtr stats = load_json(argv[2]);
  if (trace == nullptr || stats == nullptr) return 1;
  check_trace(*trace);
  check_stats(*stats);
  if (g_failures > 0) return 1;
  std::cout << "trace_check: OK (" << argv[1] << ", " << argv[2] << ")\n";
  return 0;
}
