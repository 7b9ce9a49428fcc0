#include "sched/depgraph.hpp"

#include <algorithm>
#include <utility>

namespace plim::sched {

namespace {

/// Fills a CSR (`off`, `flat`) with `rows` rows from the (row, value)
/// pairs `for_each(emit)` emits; each row keeps emission order.
template <typename ForEach>
void fill_rows(std::uint32_t rows, const ForEach& for_each,
               std::vector<std::uint32_t>& off,
               std::vector<std::uint32_t>& flat) {
  off.assign(rows + 1, 0);
  for_each([&](std::uint32_t r, std::uint32_t) { ++off[r + 1]; });
  for (std::uint32_t r = 0; r < rows; ++r) {
    off[r + 1] += off[r];
  }
  flat.resize(off[rows]);
  auto cursor = off;
  for_each([&](std::uint32_t r, std::uint32_t v) { flat[cursor[r]++] = v; });
}

}  // namespace

DependenceGraph DependenceGraph::build(const arch::Program& program) {
  DependenceGraph g;
  const auto n = static_cast<std::uint32_t>(program.num_instructions());
  // Instructions append their dependences in index order, so the CSR
  // payload fills strictly left to right: push edges, then close the row.
  g.dep_flat_.reserve(std::size_t{3} * n);
  g.dep_offset_.reserve(n + 1);
  g.dep_offset_.push_back(0);
  g.a_def_.assign(n, npos);
  g.b_def_.assign(n, npos);
  g.z_def_.assign(n, npos);
  g.reset_.assign(n, false);
  g.segment_of_.assign(n, npos);
  g.heights_.assign(n, 1);
  g.segments_.reserve(n / 2);

  // Per-cell bookkeeping, flat over cell ids: last writer and the readers
  // of its current value.
  std::vector<std::uint32_t> last_write(program.num_rrams(), npos);
  std::vector<std::vector<std::uint32_t>> readers(program.num_rrams());
  std::vector<std::uint32_t> cell_segment(program.num_rrams(), npos);

  for (std::uint32_t i = 0; i < n; ++i) {
    const auto& ins = program[i];
    const bool reset = ins.a.is_constant() && ins.b.is_constant() &&
                       ins.a.constant_value() != ins.b.constant_value();
    g.reset_[i] = reset;

    const auto read_operand = [&](arch::Operand op, std::uint32_t& def) {
      if (!op.is_rram()) {
        return;
      }
      const auto cell = op.address();
      def = last_write[cell];
      if (def == npos) {
        g.reads_initial_state_ = true;
      } else {
        g.dep_flat_.push_back({def, DepKind::raw});
      }
      readers[cell].push_back(i);
    };
    read_operand(ins.a, g.a_def_[i]);
    read_operand(ins.b, g.b_def_[i]);

    const auto z = ins.z;
    if (!reset) {
      // Z is read-modify-write: a true dependence on the previous writer
      // (or on pre-existing memory for a first write).
      g.z_def_[i] = last_write[z];
      if (last_write[z] == npos) {
        g.reads_initial_state_ = true;
      } else {
        g.dep_flat_.push_back({last_write[z], DepKind::raw});
      }
    } else if (last_write[z] != npos) {
      g.dep_flat_.push_back({last_write[z], DepKind::waw});
    }
    for (const auto r : readers[z]) {
      if (r != i) {
        g.dep_flat_.push_back({r, DepKind::war});
      }
    }
    g.dep_offset_.push_back(static_cast<std::uint32_t>(g.dep_flat_.size()));

    // Segment: a reset (or a first write) opens a new value lifetime.
    if (reset || last_write[z] == npos) {
      cell_segment[z] = static_cast<std::uint32_t>(g.segments_.size());
      g.segments_.push_back({z, i, i});
    } else {
      g.segments_[cell_segment[z]].last_write = i;
    }
    g.segment_of_[i] = cell_segment[z];

    last_write[z] = i;
    readers[z].clear();
  }

  // Read graph: the distinct cross-segment (def, reader segment) pairs,
  // grouped by def. The per-segment rows are filled in def order, so
  // every row ascends.
  const auto num_segments = static_cast<std::uint32_t>(g.segments_.size());
  g.segment_size_.assign(num_segments, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  pairs.reserve(std::size_t{2} * n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const auto s = g.segment_of_[i];
    ++g.segment_size_[s];
    for (const auto def : {g.a_def_[i], g.b_def_[i]}) {
      if (def != npos && g.segment_of_[def] != s) {
        pairs.emplace_back(def, s);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  g.reader_off_.push_back(0);
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    g.reader_seg_.push_back(pairs[k].second);
    if (k + 1 == pairs.size() || pairs[k + 1].first != pairs[k].first) {
      g.producer_seg_.push_back(g.segment_of_[pairs[k].first]);
      g.reader_off_.push_back(
          static_cast<std::uint32_t>(g.reader_seg_.size()));
    }
  }
  const auto num_defs = g.num_read_defs();
  fill_rows(
      num_segments,
      [&](const auto& emit) {
        for (std::uint32_t d = 0; d < num_defs; ++d) {
          emit(g.producer_seg_[d], d);
        }
      },
      g.produced_off_, g.produced_def_);
  fill_rows(
      num_segments,
      [&](const auto& emit) {
        for (std::uint32_t d = 0; d < num_defs; ++d) {
          for (const auto s : g.reader_segments(d)) {
            emit(s, d);
          }
        }
      },
      g.read_off_, g.read_def_of_);

  // Heights over RAW edges: sweep backwards; every successor of i has
  // already pushed its height into heights_[i] when i is visited. The
  // renamed heights additionally keep the WAR edges renaming cannot
  // remove — a reader of a chain value before the segment's next
  // (non-reset) write — giving the post-renaming chain lower bound.
  std::vector<std::uint32_t> renamed_heights(n, 1);
  for (std::uint32_t i = n; i-- > 0;) {
    g.critical_path_ = std::max(g.critical_path_, g.heights_[i]);
    g.renamed_critical_path_ =
        std::max(g.renamed_critical_path_, renamed_heights[i]);
    for (const auto& d : g.deps(i)) {
      if (d.kind == DepKind::raw) {
        g.heights_[d.pred] = std::max(g.heights_[d.pred], g.heights_[i] + 1);
      }
      if (d.kind == DepKind::raw ||
          (d.kind == DepKind::war && !g.reset_[i])) {
        renamed_heights[d.pred] =
            std::max(renamed_heights[d.pred], renamed_heights[i] + 1);
      }
    }
  }
  return g;
}

}  // namespace plim::sched
