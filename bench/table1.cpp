/// Regenerates Table 1 of the paper: for every EPFL benchmark, the
/// number of MIG nodes (#N), RM3 instructions (#I) and RRAMs (#R) under
/// three configurations — naïve translation of the initial MIG, MIG
/// rewriting + index-order translation, and rewriting + smart compilation
/// — plus the improvement percentages and the Σ row.
///
/// Every compiled program is additionally verified end-to-end against
/// bit-parallel MIG simulation on the PLiM machine model (disable with
/// --no-verify). A second table compares the measured improvements with
/// the numbers the paper reports (absolute counts differ because the
/// original EPFL netlists are re-synthesized offline; see DESIGN.md).
///
/// Usage: table1 [--benchmark <name>] [--effort N] [--no-verify]

#include <chrono>
#include <cstring>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "arch/text.hpp"
#include "circuits/epfl.hpp"
#include "core/verify.hpp"
#include "driver/driver.hpp"
#include "mig/simulation.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

struct Row {
  std::string name;
  std::uint32_t n_naive = 0, i_naive = 0, r_naive = 0;
  std::uint32_t n_rw = 0, i_rw = 0, r_rw = 0;
  std::uint32_t i_cmp = 0, r_cmp = 0;
};

std::string pct(double improvement) { return plim::util::percent(improvement); }

/// One Table-1 configuration through the driver. Verification is left
/// to the caller, which checks each program against the network that
/// was actually compiled.
plim::CompileOutcome run_config(const plim::mig::Mig& mig,
                                unsigned rewrite_effort,
                                bool smart_candidates) {
  plim::Options options;
  options.rewrite.effort = rewrite_effort;
  options.compile.smart_candidates = smart_candidates;
  options.verify.enabled = false;
  auto outcome = plim::Driver(options).run(
      plim::CompileRequest::from_mig(mig, "table1"));
  if (!outcome.ok()) {
    throw std::runtime_error(outcome.error_summary());
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only;
  unsigned effort = 4;
  bool verify = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--benchmark") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--effort") == 0 && i + 1 < argc) {
      const auto value = plim::arch::parse_decimal(
          argv[++i], std::numeric_limits<unsigned>::max());
      if (!value) {
        std::cerr << "table1: --effort needs a whole decimal number up to "
                  << std::numeric_limits<unsigned>::max() << ", got '"
                  << argv[i] << "'\n";
        return 2;
      }
      effort = static_cast<unsigned>(*value);
    } else if (std::strcmp(argv[i], "--no-verify") == 0) {
      verify = false;
    } else {
      std::cerr << "usage: table1 [--benchmark <name>] [--effort N] "
                   "[--no-verify]\n";
      return 2;
    }
  }

  plim::mig::RewriteOptions ropts;
  ropts.effort = effort;

  plim::util::TablePrinter table(
      {"Benchmark", "PI/PO", "#N", "#I", "#R", "#N", "#I", "impr.", "#R",
       "impr.", "#I", "impr.", "#R", "impr."});
  plim::util::TablePrinter paper_table(
      {"Benchmark", "I impr. (paper)", "I impr. (ours)", "R impr. (paper)",
       "R impr. (ours)"});

  Row total;
  plim::circuits::PaperRow paper_total{};
  const auto t0 = std::chrono::steady_clock::now();

  for (const auto& spec : plim::circuits::epfl_suite()) {
    if (!only.empty() && spec.name != only) {
      continue;
    }
    const auto mig = spec.build();
    if (mig.num_pis() != spec.pis || mig.num_pos() != spec.pos) {
      std::cerr << spec.name << ": interface mismatch\n";
      return 1;
    }

    // naive: no rewriting, index order; rewriting: index order; full:
    // rewriting + smart candidate selection.
    const auto naive = run_config(mig, 0, false);
    const auto rw = run_config(mig, effort, false);
    const auto cmp = run_config(mig, effort, true);

    if (verify) {
      for (const auto* result : {&naive, &rw, &cmp}) {
        // Verify against the network that was actually compiled: the
        // rewritten MIG is itself checked against the original by random
        // co-simulation below.
        const auto& compiled_for =
            result == &naive ? mig : plim::mig::rewrite_for_plim(mig, ropts);
        const auto v = plim::core::verify_program(
            compiled_for, result->program, 2, 42);
        if (!v.ok) {
          std::cerr << spec.name << ": VERIFICATION FAILED: " << v.message
                    << '\n';
          return 1;
        }
      }
      plim::util::Rng rng(7);
      const auto rewritten = plim::mig::rewrite_for_plim(mig, ropts);
      if (!plim::mig::random_equivalence_check(mig, rewritten, 8, rng)) {
        std::cerr << spec.name << ": rewriting changed the function!\n";
        return 1;
      }
    }

    Row row;
    row.name = spec.name;
    row.n_naive = naive.stats.gates;
    row.i_naive = naive.stats.compile.num_instructions;
    row.r_naive = naive.stats.compile.num_rrams;
    row.n_rw = rw.stats.gates;
    row.i_rw = rw.stats.compile.num_instructions;
    row.r_rw = rw.stats.compile.num_rrams;
    row.i_cmp = cmp.stats.compile.num_instructions;
    row.r_cmp = cmp.stats.compile.num_rrams;

    const auto impr = [](std::uint32_t before, std::uint32_t after) {
      return plim::util::improvement(before, after);
    };
    table.add_row({row.name,
                   std::to_string(mig.num_pis()) + "/" +
                       std::to_string(mig.num_pos()),
                   std::to_string(row.n_naive), std::to_string(row.i_naive),
                   std::to_string(row.r_naive), std::to_string(row.n_rw),
                   std::to_string(row.i_rw), pct(impr(row.i_naive, row.i_rw)),
                   std::to_string(row.r_rw), pct(impr(row.r_naive, row.r_rw)),
                   std::to_string(row.i_cmp),
                   pct(impr(row.i_naive, row.i_cmp)),
                   std::to_string(row.r_cmp),
                   pct(impr(row.r_naive, row.r_cmp))});

    paper_table.add_row(
        {row.name,
         pct(impr(spec.paper.i_naive, spec.paper.i_cmp)),
         pct(impr(row.i_naive, row.i_cmp)),
         pct(impr(spec.paper.r_naive, spec.paper.r_cmp)),
         pct(impr(row.r_naive, row.r_cmp))});

    total.n_naive += row.n_naive;
    total.i_naive += row.i_naive;
    total.r_naive += row.r_naive;
    total.n_rw += row.n_rw;
    total.i_rw += row.i_rw;
    total.r_rw += row.r_rw;
    total.i_cmp += row.i_cmp;
    total.r_cmp += row.r_cmp;
    paper_total.i_naive += spec.paper.i_naive;
    paper_total.r_naive += spec.paper.r_naive;
    paper_total.i_cmp += spec.paper.i_cmp;
    paper_total.r_cmp += spec.paper.r_cmp;
  }

  const auto impr = [](std::uint32_t before, std::uint32_t after) {
    return plim::util::improvement(before, after);
  };
  table.add_separator();
  table.add_row({"SUM", "", std::to_string(total.n_naive),
                 std::to_string(total.i_naive), std::to_string(total.r_naive),
                 std::to_string(total.n_rw), std::to_string(total.i_rw),
                 pct(impr(total.i_naive, total.i_rw)),
                 std::to_string(total.r_rw),
                 pct(impr(total.r_naive, total.r_rw)),
                 std::to_string(total.i_cmp),
                 pct(impr(total.i_naive, total.i_cmp)),
                 std::to_string(total.r_cmp),
                 pct(impr(total.r_naive, total.r_cmp))});
  paper_table.add_separator();
  paper_table.add_row(
      {"SUM", pct(impr(paper_total.i_naive, paper_total.i_cmp)),
       pct(impr(total.i_naive, total.i_cmp)),
       pct(impr(paper_total.r_naive, paper_total.r_cmp)),
       pct(impr(total.r_naive, total.r_cmp))});

  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();

  std::cout << "Table 1: naive | MIG rewriting (effort " << effort
            << ") | rewriting and compilation\n";
  std::cout << "(columns 3-5: naive on initial MIG; 6-10: rewriting + "
               "index order; 11-14: rewriting + smart candidates)\n\n";
  table.print(std::cout);
  std::cout << "\nMeasured vs paper (improvement of rewriting+compilation "
               "over naive):\n\n";
  paper_table.print(std::cout);
  std::cout << "\ntotal time: " << elapsed << " ms"
            << (verify ? " (including end-to-end verification)" : "") << '\n';
  return 0;
}
