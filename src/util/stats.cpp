#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

#include "util/trace.hpp"

namespace plim::util {

Summary summarize(const std::vector<std::uint64_t>& samples) {
  Summary s;
  if (samples.empty()) {
    return s;
  }
  s.count = samples.size();
  s.min = samples.front();
  s.max = samples.front();
  for (const auto v : samples) {
    s.total += v;
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = static_cast<double>(s.total) / static_cast<double>(s.count);
  double acc = 0.0;
  for (const auto v : samples) {
    const double d = static_cast<double>(v) - s.mean;
    acc += d * d;
  }
  s.stddev = std::sqrt(acc / static_cast<double>(s.count));
  return s;
}

void JsonWriter::comma() {
  if (!first_.empty()) {
    if (!first_.back()) {
      out_ += ',';
    }
    first_.back() = false;
  }
}

void JsonWriter::key(const std::string& k) {
  comma();
  escape(k);
  out_ += ':';
}

void JsonWriter::escape(const std::string& s) {
  out_ += '"';
  json_escape(s, out_);
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  comma();
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::begin_object(const std::string& k) {
  key(k);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::begin_array(const std::string& k) {
  key(k);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const std::string& value) {
  key(k);
  escape(value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, const char* value) {
  return field(k, std::string(value));
}

JsonWriter& JsonWriter::field(const std::string& k, std::uint64_t value) {
  key(k);
  out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, std::uint32_t value) {
  return field(k, static_cast<std::uint64_t>(value));
}

JsonWriter& JsonWriter::field(const std::string& k, double value) {
  key(k);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::field(const std::string& k, bool value) {
  key(k);
  out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::uint32_t v) {
  return value(static_cast<std::uint64_t>(v));
}

JsonWriter& JsonWriter::value(const std::string& v) {
  comma();
  escape(v);
  return *this;
}

bool emit_json(const JsonWriter& json, const std::string& path,
               const std::string& tool) {
  if (path == "-") {
    std::cout << json.str() << '\n';
    return true;
  }
  std::ofstream out(path);
  if (!out) {
    std::cerr << tool << ": cannot write " << path << '\n';
    return false;
  }
  out << json.str() << '\n';
  return true;
}

}  // namespace plim::util
