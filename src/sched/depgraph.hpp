#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arch/program.hpp"

namespace plim::sched {

/// Kind of an inter-instruction dependence over an RRAM cell.
enum class DepKind : std::uint8_t {
  raw,  ///< true dependence: reads a value the predecessor wrote
  war,  ///< anti dependence: overwrites a cell the predecessor read
  waw,  ///< output dependence: overwrites a cell the predecessor wrote
};

struct Dep {
  std::uint32_t pred;  ///< index of the earlier instruction
  DepKind kind;
};

/// Register-level dependence graph of a serial PLiM program.
///
/// RM3 is read-modify-write: instruction i reads its two operands and the
/// destination cell Z, then overwrites Z — unless the instruction is a
/// *reset* (both operands constant with different values, which forces
/// Z ← 0 or Z ← 1 regardless of the old content; this is exactly how the
/// compiler initializes fresh cells). Input and constant operands carry no
/// dependences; only RRAM cells do.
///
/// The graph additionally decomposes the program into *segments*: maximal
/// chains of writes to one cell connected through the Z read-modify-write
/// dependence. A reset starts a new segment, so a segment corresponds to
/// one value lifetime of a cell — the unit the multi-bank scheduler
/// assigns to banks and renames onto physical cells.
///
/// Over segments it keeps the *read graph* every bank-assignment cost is
/// priced on: the values read across segments (read defs, dense in
/// instruction order), each with its distinct reader segments. A bank
/// assignment pays one transfer per distinct (read def, foreign reader
/// bank) pair.
class DependenceGraph {
 public:
  static constexpr std::uint32_t npos = 0xffffffffu;

  /// One value lifetime of a serial cell.
  struct Segment {
    std::uint32_t cell = 0;            ///< serial RRAM cell
    std::uint32_t first_write = npos;  ///< instruction starting the chain
    std::uint32_t last_write = npos;   ///< last instruction of the chain
  };

  /// Builds the graph in O(instructions + edges).
  [[nodiscard]] static DependenceGraph build(const arch::Program& program);

  [[nodiscard]] std::uint32_t num_instructions() const noexcept {
    return static_cast<std::uint32_t>(dep_offset_.empty()
                                          ? 0
                                          : dep_offset_.size() - 1);
  }

  /// Predecessor dependences of instruction `i` (RAW, WAR and WAW).
  /// Stored flat (CSR over all instructions) so graph construction and the
  /// scheduler's sweeps touch one contiguous buffer instead of chasing
  /// per-instruction vectors.
  [[nodiscard]] std::span<const Dep> deps(std::uint32_t i) const {
    return {dep_flat_.data() + dep_offset_[i],
            dep_offset_[i + 1] - dep_offset_[i]};
  }

  /// Producing instruction of the A / B operand (npos when the operand is
  /// a constant, an input, or reads a never-written cell).
  [[nodiscard]] std::uint32_t def_of_a(std::uint32_t i) const {
    return a_def_[i];
  }
  [[nodiscard]] std::uint32_t def_of_b(std::uint32_t i) const {
    return b_def_[i];
  }
  /// Previous write of the destination chain (npos for resets and for the
  /// first write to a cell).
  [[nodiscard]] std::uint32_t def_of_z(std::uint32_t i) const {
    return z_def_[i];
  }

  /// True when the instruction forces a constant into Z (old content
  /// irrelevant): both operands constant with different values.
  [[nodiscard]] bool is_reset(std::uint32_t i) const { return reset_[i]; }

  /// Segment of the destination cell of instruction `i`.
  [[nodiscard]] std::uint32_t segment_of(std::uint32_t i) const {
    return segment_of_[i];
  }
  [[nodiscard]] std::uint32_t num_segments() const noexcept {
    return static_cast<std::uint32_t>(segments_.size());
  }
  [[nodiscard]] const Segment& segment(std::uint32_t s) const {
    return segments_[s];
  }
  /// Instructions of segment `s`.
  [[nodiscard]] std::uint32_t segment_size(std::uint32_t s) const {
    return segment_size_[s];
  }

  /// Read defs: instructions whose value some other segment reads
  /// through an A or B operand, numbered densely in instruction order.
  [[nodiscard]] std::uint32_t num_read_defs() const noexcept {
    return static_cast<std::uint32_t>(producer_seg_.size());
  }
  /// Segment producing read def `d`.
  [[nodiscard]] std::uint32_t producer_segment(std::uint32_t d) const {
    return producer_seg_[d];
  }
  /// Distinct segments reading read def `d`, ascending; never the
  /// producing segment itself.
  [[nodiscard]] std::span<const std::uint32_t> reader_segments(
      std::uint32_t d) const {
    return row(reader_off_, reader_seg_, d);
  }
  /// Read defs segment `s` produces, ascending.
  [[nodiscard]] std::span<const std::uint32_t> defs_produced_by(
      std::uint32_t s) const {
    return row(produced_off_, produced_def_, s);
  }
  /// Read defs segment `s` reads, ascending.
  [[nodiscard]] std::span<const std::uint32_t> defs_read_by(
      std::uint32_t s) const {
    return row(read_off_, read_def_of_, s);
  }

  /// True when some instruction reads a cell (via A, B or a non-reset Z)
  /// before any instruction has written it, i.e. the program depends on
  /// pre-existing memory content. Compiled programs never do this.
  [[nodiscard]] bool reads_initial_state() const noexcept {
    return reads_initial_state_;
  }

  /// Length (in instructions) of the longest RAW chain — the schedule
  /// length lower bound with unlimited banks and free transfers.
  [[nodiscard]] std::uint32_t critical_path() const noexcept {
    return critical_path_;
  }

  /// The schedule-length lower bound *after renaming*: longest chain over
  /// RAW edges plus the WAR orderings renaming cannot remove — a reader
  /// of a chain value must still execute before the next write of the
  /// same segment (the lockstep machine forbids reading a cell another
  /// slot writes in the same step). Always ≥ critical_path(); the gap is
  /// the cost of mid-chain fanout. One caveat keeps this a heuristic
  /// rather than an absolute bound: a reader that the scheduler resolves
  /// by local recomputation (duplication) detaches from the chain it
  /// reads, so schedulers cap it with the expanded program's exact chain
  /// length when reporting lower bounds.
  [[nodiscard]] std::uint32_t renamed_critical_path() const noexcept {
    return renamed_critical_path_;
  }

  /// Longest RAW path from `i` to any sink, in instructions (≥ 1) — the
  /// classic list-scheduling priority.
  [[nodiscard]] const std::vector<std::uint32_t>& heights() const noexcept {
    return heights_;
  }

 private:
  static std::span<const std::uint32_t> row(
      const std::vector<std::uint32_t>& off,
      const std::vector<std::uint32_t>& flat, std::uint32_t k) {
    return {flat.data() + off[k], flat.data() + off[k + 1]};
  }

  std::vector<Dep> dep_flat_;            ///< CSR payload
  std::vector<std::uint32_t> dep_offset_;  ///< CSR offsets (n + 1 entries)
  std::vector<std::uint32_t> a_def_;
  std::vector<std::uint32_t> b_def_;
  std::vector<std::uint32_t> z_def_;
  std::vector<bool> reset_;
  std::vector<std::uint32_t> segment_of_;
  std::vector<Segment> segments_;
  std::vector<std::uint32_t> segment_size_;
  // Read graph, three CSRs: read def → reader segments, segment →
  // produced read defs, segment → read defs it reads.
  std::vector<std::uint32_t> producer_seg_;
  std::vector<std::uint32_t> reader_off_;
  std::vector<std::uint32_t> reader_seg_;
  std::vector<std::uint32_t> produced_off_;
  std::vector<std::uint32_t> produced_def_;
  std::vector<std::uint32_t> read_off_;
  std::vector<std::uint32_t> read_def_of_;
  std::vector<std::uint32_t> heights_;
  bool reads_initial_state_ = false;
  std::uint32_t critical_path_ = 0;
  std::uint32_t renamed_critical_path_ = 0;
};

}  // namespace plim::sched
