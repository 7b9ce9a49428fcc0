#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/isa.hpp"

namespace plim::arch {

/// A PLiM program: a sequence of RM3 instructions plus interface metadata
/// (named primary inputs, and the RRAM cells in which the named outputs
/// reside after the program has run).
class Program {
 public:
  Program() = default;

  // ---- construction ------------------------------------------------------

  /// Declares a primary input; returns its index.
  std::uint32_t add_input(std::string name);

  /// Appends an instruction. Destination cells grow the RRAM count.
  void append(Instruction instr);
  void append(Operand a, Operand b, std::uint32_t z) {
    append(Instruction{a, b, z});
  }

  /// Declares that after execution, output `name` lives in RRAM `cell`.
  void add_output(std::string name, std::uint32_t cell);

  /// Raises the declared RRAM count (cells used but never written — does
  /// not normally happen with compiled programs).
  void ensure_rram_count(std::uint32_t count);

  // ---- queries -------------------------------------------------------------

  [[nodiscard]] std::size_t num_instructions() const noexcept {
    return instructions_.size();
  }
  [[nodiscard]] const std::vector<Instruction>& instructions() const noexcept {
    return instructions_;
  }
  [[nodiscard]] const Instruction& operator[](std::size_t i) const {
    return instructions_[i];
  }

  /// Number of distinct RRAM cells the program uses (the paper's #R).
  [[nodiscard]] std::uint32_t num_rrams() const noexcept { return num_rrams_; }

  [[nodiscard]] std::uint32_t num_inputs() const noexcept {
    return static_cast<std::uint32_t>(input_names_.size());
  }
  [[nodiscard]] const std::string& input_name(std::uint32_t i) const {
    return input_names_[i];
  }
  [[nodiscard]] const std::vector<std::string>& input_names() const noexcept {
    return input_names_;
  }

  [[nodiscard]] std::uint32_t num_outputs() const noexcept {
    return static_cast<std::uint32_t>(outputs_.size());
  }
  [[nodiscard]] const std::string& output_name(std::uint32_t i) const {
    return outputs_[i].first;
  }
  [[nodiscard]] std::uint32_t output_cell(std::uint32_t i) const {
    return outputs_[i].second;
  }
  /// (name, cell) per output, in declaration order.
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint32_t>>&
  outputs() const noexcept {
    return outputs_;
  }

  /// Structural sanity: all operand addresses within bounds, outputs refer
  /// to existing cells. Returns an empty string when valid, otherwise a
  /// description of the first violation.
  [[nodiscard]] std::string validate() const;

 private:
  std::vector<Instruction> instructions_;
  std::vector<std::string> input_names_;
  std::vector<std::pair<std::string, std::uint32_t>> outputs_;
  std::uint32_t num_rrams_ = 0;
};

}  // namespace plim::arch
