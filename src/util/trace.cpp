#include "util/trace.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

namespace plim::util {

namespace {

/// Stable small integer for the calling thread: Chrome trace tids are
/// rendered verbatim, and a hash of std::thread::id would make every
/// run's track names churn. First thread to emit gets 0, the next 1, …
std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next{0};
  thread_local std::uint32_t tid = next.fetch_add(1);
  return tid;
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  json_escape(s, out);
  return out;
}

void json_escape(const std::string& s, std::string& out) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::push(Event event) {
  const std::lock_guard<std::mutex> lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::begin(const char* name, const std::string& args_json) {
  if (!enabled()) {
    return;
  }
  Event e;
  e.name = name;
  e.cat = "compile";
  e.ph = 'B';
  e.pid = kCompilerPid;
  e.tid = current_tid();
  e.ts = now_us();
  e.args_json = args_json;
  push(std::move(e));
}

void Tracer::end() {
  if (!enabled()) {
    return;
  }
  Event e;
  e.cat = "compile";
  e.ph = 'E';
  e.pid = kCompilerPid;
  e.tid = current_tid();
  e.ts = now_us();
  push(std::move(e));
}

std::uint32_t Tracer::reserve_pid() { return next_pid_.fetch_add(1); }

void Tracer::name_process(std::uint32_t pid, const std::string& name) {
  if (!enabled()) {
    return;
  }
  Event e;
  e.name = "process_name";
  e.ph = 'M';
  e.pid = pid;
  e.tid = 0;
  e.args_json = "\"name\":\"" + json_escape(name) + "\"";
  push(std::move(e));
}

void Tracer::name_thread(std::uint32_t pid, std::uint32_t tid,
                         const std::string& name) {
  if (!enabled()) {
    return;
  }
  Event e;
  e.name = "thread_name";
  e.ph = 'M';
  e.pid = pid;
  e.tid = tid;
  e.args_json = "\"name\":\"" + json_escape(name) + "\"";
  push(std::move(e));
}

void Tracer::complete(const char* name, const char* cat, std::uint32_t pid,
                      std::uint32_t tid, double ts, double dur) {
  if (!enabled()) {
    return;
  }
  Event e;
  e.name = name;
  e.cat = cat;
  e.ph = 'X';
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.dur = dur;
  push(std::move(e));
}

void Tracer::flow_start(const char* name, std::uint32_t pid, std::uint32_t tid,
                        double ts, std::uint64_t id) {
  if (!enabled()) {
    return;
  }
  Event e;
  e.name = name;
  e.cat = "bus";
  e.ph = 's';
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.id = id;
  push(std::move(e));
}

void Tracer::flow_finish(const char* name, std::uint32_t pid,
                         std::uint32_t tid, double ts, std::uint64_t id) {
  if (!enabled()) {
    return;
  }
  Event e;
  e.name = name;
  e.cat = "bus";
  e.ph = 'f';
  e.pid = pid;
  e.tid = tid;
  e.ts = ts;
  e.id = id;
  push(std::move(e));
}

std::size_t Tracer::num_events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<Tracer::Event> Tracer::snapshot() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::string Tracer::to_json() const {
  const auto events = snapshot();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"name\":\"" + json_escape(e.name) + "\"";
    if (!e.cat.empty()) {
      out += ",\"cat\":\"" + json_escape(e.cat) + "\"";
    }
    out += ",\"ph\":\"";
    out += e.ph;
    out += "\",\"pid\":" + std::to_string(e.pid) +
           ",\"tid\":" + std::to_string(e.tid) + ",\"ts\":";
    append_double(out, e.ts);
    if (e.ph == 'X') {
      out += ",\"dur\":";
      append_double(out, e.dur);
    }
    if (e.ph == 's' || e.ph == 'f') {
      out += ",\"id\":" + std::to_string(e.id);
      if (e.ph == 'f') {
        out += ",\"bp\":\"e\"";  // bind the arrow to the enclosing slice
      }
    }
    if (!e.args_json.empty()) {
      out += ",\"args\":{" + e.args_json + "}";
    }
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "trace: cannot write %s\n", path.c_str());
    return false;
  }
  out << to_json() << '\n';
  return out.good();
}

}  // namespace plim::util
