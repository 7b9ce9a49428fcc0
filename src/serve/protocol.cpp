#include "serve/protocol.hpp"

#include <cctype>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace plim::serve {

namespace {

/// Minimal JSON scanner for the flat request objects of the protocol.
/// Deliberately not a general JSON library: one object, string keys,
/// scalar values (string / number / true / false / null), no nesting.
class FlatJsonParser {
 public:
  explicit FlatJsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Parses `{"k":v,...}` into key/value pairs (numbers, booleans and
  /// null keep their literal spelling). False + error on anything else.
  bool parse(std::vector<std::pair<std::string, std::string>>& fields,
             std::string& error) {
    skip_ws();
    if (!consume('{')) {
      error = "expected a JSON object";
      return false;
    }
    skip_ws();
    if (consume('}')) {
      return finish(error);
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key, error)) {
        return false;
      }
      skip_ws();
      if (!consume(':')) {
        error = "expected ':' after key \"" + key + "\"";
        return false;
      }
      skip_ws();
      std::string value;
      if (!parse_scalar(value, error)) {
        return false;
      }
      fields.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume(',')) {
        continue;
      }
      if (consume('}')) {
        return finish(error);
      }
      error = "expected ',' or '}' in object";
      return false;
    }
  }

 private:
  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\r' ||
                         *p_ == '\n')) {
      ++p_;
    }
  }
  bool consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }
  bool finish(std::string& error) {
    skip_ws();
    if (p_ != end_) {
      error = "trailing characters after object";
      return false;
    }
    return true;
  }

  bool parse_string(std::string& out, std::string& error) {
    if (!consume('"')) {
      error = "expected a string";
      return false;
    }
    out.clear();
    while (p_ < end_) {
      const char c = *p_++;
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (p_ >= end_) {
        break;
      }
      const char esc = *p_++;
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Basic-plane escapes only; enough for paths and labels.
          if (end_ - p_ < 4) {
            error = "truncated \\u escape";
            return false;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = *p_++;
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              error = "invalid \\u escape";
              return false;
            }
          }
          // UTF-8 encode.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          error = "invalid escape";
          return false;
      }
    }
    error = "unterminated string";
    return false;
  }

  bool parse_scalar(std::string& out, std::string& error) {
    if (p_ < end_ && *p_ == '"') {
      return parse_string(out, error);
    }
    if (p_ < end_ && (*p_ == '{' || *p_ == '[')) {
      error = "nested values are not part of the protocol";
      return false;
    }
    const char* start = p_;
    while (p_ < end_ && *p_ != ',' && *p_ != '}' && *p_ != ' ' &&
           *p_ != '\t' && *p_ != '\r' && *p_ != '\n') {
      ++p_;
    }
    out.assign(start, p_);
    if (out.empty()) {
      error = "expected a value";
      return false;
    }
    return true;
  }

  const char* p_;
  const char* end_;
};

void emit_diagnostics(util::JsonWriter& json,
                      const std::vector<Diagnostic>& diags) {
  json.begin_array("diagnostics");
  for (const auto& d : diags) {
    json.begin_object();
    json.field("severity", d.severity == Diagnostic::Severity::error
                               ? "error"
                               : "warning");
    json.field("code", d.code);
    json.field("message", d.message);
    json.end_object();
  }
  json.end_array();
}

}  // namespace

bool parse_request(const std::string& line, Request& out,
                   std::string& error) {
  std::vector<std::pair<std::string, std::string>> fields;
  FlatJsonParser parser(line);
  if (!parser.parse(fields, error)) {
    return false;
  }
  out = Request{};
  std::string cmd;
  for (auto& [key, value] : fields) {
    if (key == "id") {
      out.id = std::move(value);
    } else if (key == "benchmark") {
      out.benchmark = std::move(value);
    } else if (key == "blif") {
      out.blif = std::move(value);
    } else if (key == "cmd") {
      cmd = std::move(value);
    } else {
      error = "unknown field \"" + key + "\"";
      return false;
    }
  }
  if (!cmd.empty()) {
    if (!out.benchmark.empty() || !out.blif.empty()) {
      error = "\"cmd\" excludes a compile source";
      return false;
    }
    if (cmd == "stats") {
      out.kind = Request::Kind::stats;
    } else if (cmd == "ping") {
      out.kind = Request::Kind::ping;
    } else if (cmd == "shutdown") {
      out.kind = Request::Kind::shutdown;
    } else {
      error = "unknown cmd \"" + cmd + "\"";
      return false;
    }
    return true;
  }
  out.kind = Request::Kind::compile;
  if (out.benchmark.empty() == out.blif.empty()) {
    error = "a compile request needs exactly one of \"benchmark\" or "
            "\"blif\"";
    return false;
  }
  return true;
}

std::string error_response(const std::string& id, const std::string& code,
                           const std::string& message) {
  util::JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", false);
  json.begin_object("error");
  json.field("code", code);
  json.field("message", message);
  json.end_object();
  json.end_object();
  return json.str();
}

std::string compile_response(const std::string& id, const std::string& label,
                             const CompileOutcome& outcome, bool cache_hit,
                             double latency_ms, double queue_ms) {
  util::JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", outcome.ok());
  json.field("cache", cache_hit ? "hit" : "miss");
  json.field("latency_ms", latency_ms);
  json.field("queue_ms", queue_ms);
  if (!outcome.diagnostics.empty()) {
    emit_diagnostics(json, outcome.diagnostics);
  }
  if (outcome.ok()) {
    auto report = outcome.stats;
    report.benchmark = label;
    report.normalize_timing();
    json.begin_object("report");
    report.write_json_fields(json);
    json.end_object();
  }
  json.end_object();
  return json.str();
}

std::string stats_response(const std::string& id,
                           const ServerSnapshot& snapshot) {
  util::JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.begin_object("server");
  json.field("requests", snapshot.requests);
  json.field("cache_hits", snapshot.cache_hits);
  json.field("cache_misses", snapshot.cache_misses);
  json.field("cache_evictions", snapshot.cache_evictions);
  json.field("hit_rate", snapshot.hit_rate);
  json.field("p50_ms", snapshot.p50_ms);
  json.field("p99_ms", snapshot.p99_ms);
  json.field("queue_depth", std::uint64_t{snapshot.queue_depth});
  json.field("workers", std::uint32_t{snapshot.workers});
  json.field("cache_entries", std::uint64_t{snapshot.cache_entries});
  json.field("cache_bytes", std::uint64_t{snapshot.cache_bytes});
  json.field("cache_max_bytes", std::uint64_t{snapshot.cache_max_bytes});
  json.end_object();
  json.end_object();
  return json.str();
}

std::string pong_response(const std::string& id) {
  util::JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.field("pong", true);
  json.end_object();
  return json.str();
}

std::string shutdown_response(const std::string& id) {
  util::JsonWriter json;
  json.begin_object();
  json.field("id", id);
  json.field("ok", true);
  json.field("shutdown", true);
  json.end_object();
  return json.str();
}

}  // namespace plim::serve
