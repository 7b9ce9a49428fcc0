#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "mig/mig.hpp"

namespace plim {

/// One unit of work for the plim::Driver: where the network comes from.
/// Requests are cheap to copy (in-memory networks are shared, not
/// duplicated), so a batch worklist can be built, filtered and re-ordered
/// freely before it is fanned across threads.
class CompileRequest {
 public:
  enum class Kind {
    blif,       ///< read a combinational BLIF netlist from `path()`
    benchmark,  ///< build the named EPFL-equivalent benchmark
    network,    ///< compile an in-memory MIG
  };

  /// Compile a BLIF netlist file. `label` names the request in reports
  /// (defaults to the path).
  [[nodiscard]] static CompileRequest from_blif(std::string path,
                                                std::string label = "");

  /// Compile a named benchmark of circuits::epfl_suite().
  [[nodiscard]] static CompileRequest from_benchmark(std::string name);

  /// Compile an in-memory MIG. The network is copied once into shared
  /// storage; copies of the request alias it.
  [[nodiscard]] static CompileRequest from_mig(mig::Mig network,
                                               std::string label);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// BLIF path (Kind::blif only).
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// Display name used in diagnostics and StatsReport::benchmark.
  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  /// Shared in-memory network (Kind::network only; null there only in a
  /// moved-from request).
  [[nodiscard]] const mig::Mig* network() const noexcept {
    return network_.get();
  }

 private:
  CompileRequest() = default;

  Kind kind_ = Kind::benchmark;
  std::string path_;
  std::string label_;
  std::shared_ptr<const mig::Mig> network_;
};

/// Parses a batch manifest (`plimc --batch`): one request per line,
/// either `blif <path>`, `benchmark <name>`, or a bare token (shorthand
/// for `benchmark <token>`). Blank lines and `#` comments are skipped.
/// Throws std::runtime_error naming the offending line on malformed
/// input.
[[nodiscard]] std::vector<CompileRequest> read_manifest(std::istream& in);
[[nodiscard]] std::vector<CompileRequest> read_manifest_file(
    const std::string& path);

}  // namespace plim
