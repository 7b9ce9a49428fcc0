#pragma once

#include <vector>

#include "mig/mig.hpp"

namespace plim::mig {

/// Flags the nodes in the transitive fanin of the POs; the constant and
/// every PI are always flagged.
[[nodiscard]] std::vector<bool> reachable_from_pos(const Mig& mig);

/// Returns a compacted copy of `mig` containing only the constant, all PIs
/// (order and names preserved) and the gates in the transitive fanin of the
/// POs. Gate re-creation goes through `create_maj`, so trivially redundant
/// gates also disappear. PO order and names are preserved.
[[nodiscard]] Mig cleanup_dangling(const Mig& mig);

}  // namespace plim::mig
