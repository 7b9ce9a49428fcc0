#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "driver/driver.hpp"

namespace plim::serve {

/// The JSON-lines protocol of `plimc --serve`: one JSON object per line
/// in, one JSON object per line out. Responses carry the request's `id`
/// verbatim, so clients may pipeline requests and match answers out of
/// order — the server replies in completion order, not arrival order.
///
/// Requests:
///   {"id":"r1","benchmark":"adder"}     compile a named EPFL benchmark
///   {"id":"r2","blif":"/path/f.blif"}   compile a BLIF netlist
///   {"id":"s","cmd":"stats"}            server/cache/latency snapshot
///   {"id":"p","cmd":"ping"}            liveness probe
///   {"cmd":"shutdown"}                 graceful drain + exit
///
/// Compile responses:
///   {"id":"r1","ok":true,"cache":"hit"|"miss",
///    "latency_ms":..,"queue_ms":..,"report":{StatsReport schema}}
/// with timing inside "report" normalized to zero — the wall-clock truth
/// lives in the envelope's latency fields, so a cache hit's report is
/// byte-identical to the miss that populated it. Failures carry
/// "ok":false and a "diagnostics" array instead of a report.
struct Request {
  enum class Kind { compile, stats, ping, shutdown };

  Kind kind = Kind::compile;
  /// Echoed verbatim in the response (always re-emitted as a JSON
  /// string; empty when the request carried none).
  std::string id;
  /// Compile source: exactly one of the two is non-empty.
  std::string benchmark;
  std::string blif;
};

/// Parses one request line into `out`. False on malformed input — bad
/// JSON, an unknown "cmd", both or neither compile source — with
/// `error` naming the problem. Values may be strings, numbers, booleans
/// or null; nested containers are rejected (the protocol is flat).
bool parse_request(const std::string& line, Request& out,
                   std::string& error);

/// {"id":..,"ok":false,"error":{"code":..,"message":..}}
[[nodiscard]] std::string error_response(const std::string& id,
                                         const std::string& code,
                                         const std::string& message);

/// The compile response described above. `outcome.stats` is serialized
/// with timing already normalized by the caller.
[[nodiscard]] std::string compile_response(const std::string& id,
                                           const CompileOutcome& outcome,
                                           bool cache_hit, double latency_ms,
                                           double queue_ms);

/// What {"cmd":"stats"} reports — the server's live counters.
struct ServerSnapshot {
  std::uint64_t requests = 0;   ///< compile requests answered
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;  ///< LRU entries dropped for space
  double hit_rate = 0.0;
  double p50_ms = 0.0;  ///< compile-request latency percentiles
  double p99_ms = 0.0;
  std::size_t queue_depth = 0;
  unsigned workers = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_max_bytes = 0;
};

[[nodiscard]] std::string stats_response(const std::string& id,
                                         const ServerSnapshot& snapshot);

/// {"id":..,"ok":true,"pong":true}
[[nodiscard]] std::string pong_response(const std::string& id);

/// {"id":..,"ok":true,"shutdown":true} — acknowledged before the drain.
[[nodiscard]] std::string shutdown_response(const std::string& id);

}  // namespace plim::serve
