#pragma once

#include <iosfwd>
#include <string>

#include "mig/mig.hpp"

namespace plim::io {

/// Writes the MIG in Berkeley Logic Interchange Format. Every majority
/// gate becomes a `.names` entry whose cover encodes ⟨abc⟩ with fanin
/// complements folded in; PO complements become one-row inverter covers.
/// The text is formatted into a buffer that goes to `os` in chunks of
/// about 64 KiB, so a large network adds no more than one chunk of
/// memory; `to_blif` returns the whole text.
///
/// Every name is defined once. PIs keep their port names; gate k is
/// `n<k>` and the constant `const0`, each followed by as many `_` as it
/// takes to differ from every port name. A PO named like a PI or an
/// earlier PO gets no buffer when both name the same signal. Throws
/// std::invalid_argument when one port name stands for two different
/// signals (two PIs, or a PO and a PI or another PO).
void write_blif(const mig::Mig& mig, std::ostream& os,
                const std::string& model_name = "mig");
[[nodiscard]] std::string to_blif(const mig::Mig& mig,
                                  const std::string& model_name = "mig");

/// Reads a combinational BLIF model back into an MIG. Each `.names` cover
/// is synthesized as OR-of-AND terms (AOIG style, so the result mirrors
/// the paper's AOIG→MIG transposition). Supports single-output covers
/// with '0'/'1'/'-' input plane entries and output plane '1' or '0'.
///
/// Lines split at '\n' and '#' starts a comment; trailing '\r' and spaces
/// are trimmed before a final '\' joins the line to the next one; tokens
/// split at the six whitespace bytes of the C locale (' ', '\t', '\n',
/// '\v', '\f', '\r'), whatever the locale is. Throws std::runtime_error on
/// unsupported or malformed input, including a name defined twice; when
/// a text has both, a syntax error is reported before any other error.
[[nodiscard]] mig::Mig read_blif(std::istream& is);
[[nodiscard]] mig::Mig read_blif_text(const std::string& text);

}  // namespace plim::io
