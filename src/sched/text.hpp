#pragma once

#include <iosfwd>
#include <string>

#include "sched/parallel_program.hpp"

namespace plim::sched {

/// Renders a parallel program in an extension of the paper's listing
/// syntax: one line per step, slots separated by '|', each slot tagged
/// with its executing bank ("b<k>:"); transfer slots are tagged "b<k>*:".
///
///   # parallel banks 2
///   # bus 1
///   # input 0 i1
///   # bank 0 @X1..@X3
///   # bank 1 @X4..@X5
///   01: b0: 0, 1, @X1 | b1: 0, 1, @X4
///   02: b0: i1, 0, @X1 | b1*: @X1, 0, @X4
///   # sync t1: b0@2 -> b1@2
///   # output f @X4
///
/// Inputs, outputs, counters, operands and cells follow the serial
/// grammar (arch/text). "# parallel banks" allows 1 to kMaxBanks banks;
/// the optional "# bus <k>" line (k >= 1) declares the bounded inter-bank
/// bus the schedule honours. Bank ranges are 1-based inclusive ("@X1..@X3"
/// = cells 0..2); a bank without cells prints as "# bank <k> empty".
///
/// "# sync t<id>: b<f>@<p> -> b<t>@<q>" lines carry the explicit
/// synchronization tokens of the decoupled execution model (see
/// sched/decoupled.hpp): token <id> is signaled by bank <f> once its
/// <p>-th stream instruction (1-based, counting the bank's slots in step
/// order) completes and waited on by bank <t> before its <q>-th stream
/// instruction starts. Token ids must be 1..N in order: a missing or
/// duplicate id means half of a signal/wait pair got lost.
[[nodiscard]] std::string to_text(const ParallelProgram& program);
void write_text(const ParallelProgram& program, std::ostream& os);

/// Parses the textual form back (round-trip of `to_text`). Throws
/// std::runtime_error on malformed input, on a second "# parallel banks"
/// line, or when the reconstructed program fails
/// ParallelProgram::validate().
[[nodiscard]] ParallelProgram parse_parallel_program(const std::string& text);

}  // namespace plim::sched
