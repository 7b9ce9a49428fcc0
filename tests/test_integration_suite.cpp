/// Integration sweep: scaled-down instances of every parameterizable
/// Table-1 benchmark run through all three pipeline configurations; each
/// program executes on the PLiM machine against MIG simulation, and the
/// rewritten network is certified equivalent to the original by SAT.

#include <gtest/gtest.h>

#include <utility>

#include "circuits/epfl.hpp"
#include "core/verify.hpp"
#include "driver/driver.hpp"
#include "mig/cleanup.hpp"
#include "mig/random.hpp"
#include "mig/rewriting.hpp"
#include "sat/equivalence.hpp"

namespace plim {
namespace {

struct Scaled {
  const char* name;
  mig::Mig (*build)();
};

mig::Mig adder8() { return circuits::make_adder(8); }
mig::Mig bar16() { return circuits::make_bar(16); }
mig::Mig div4() { return circuits::make_div(4); }
mig::Mig max8() { return circuits::make_max(8); }
mig::Mig mult4() { return circuits::make_multiplier(4); }
mig::Mig sqrt8() { return circuits::make_sqrt(8); }
mig::Mig square4() { return circuits::make_square(4); }
mig::Mig dec4() { return circuits::make_dec(4); }
mig::Mig priority16() { return circuits::make_priority(16); }
mig::Mig voter15() { return circuits::make_voter(15); }
mig::Mig cavlc_full() { return circuits::make_cavlc(); }
mig::Mig ctrl_full() { return circuits::make_ctrl(); }
mig::Mig router_full() { return circuits::make_router(); }
mig::Mig int2float_full() { return circuits::make_int2float(); }

class ScaledSuite : public ::testing::TestWithParam<Scaled> {};

TEST_P(ScaledSuite, AllTable1ConfigsVerifyAndSatCertify) {
  const auto& param = GetParam();
  // Shuffle like the registry does, so the naïve order is realistic.
  const auto m = mig::shuffle_topological(param.build(), 0xbeef);

  // Table 1's naïve, rewriting and full configurations: rewriting on or
  // off, smart candidate selection on or off.
  for (const auto& [rewrite, smart] :
       {std::pair{false, false}, std::pair{true, false},
        std::pair{true, true}}) {
    Options options;
    if (!rewrite) {
      options.rewrite.effort = 0;
    }
    options.compile.smart_candidates = smart;
    options.verify.enabled = false;  // verified below, against SAT too
    const auto r =
        Driver(options).run(CompileRequest::from_mig(m, param.name));
    ASSERT_TRUE(r.ok()) << param.name << ": " << r.error_summary();
    const auto compiled_for =
        rewrite ? mig::rewrite_for_plim(m) : mig::cleanup_dangling(m);
    const auto v = core::verify_program(compiled_for, r.program, 4, 0x5eed);
    ASSERT_TRUE(v.ok) << param.name << ": " << v.message;
    EXPECT_GE(r.stats.compile.num_instructions, r.stats.gates)
        << param.name << ": fewer instructions than gates is impossible";
  }

  // SAT-certify the rewriting (these instances are small enough).
  const auto rewritten = mig::rewrite_for_plim(m);
  const auto report = sat::check_equivalence(m, rewritten);
  EXPECT_EQ(report.verdict, sat::Equivalence::equivalent) << param.name;
}

TEST_P(ScaledSuite, RewritingRemovesAllMultiComplementGates) {
  const auto m = GetParam().build();
  const auto rewritten = mig::rewrite_for_plim(m);
  // Algorithm 1's conditional pass plus the final sweep eliminate every
  // all-complemented gate; on these AIG-style networks the conditional
  // rule also clears the 2-complement gates (cf. ablation_effort).
  EXPECT_LE(mig::count_multi_complement(rewritten),
            mig::count_multi_complement(mig::cleanup_dangling(m)))
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, ScaledSuite,
    ::testing::Values(Scaled{"adder8", adder8}, Scaled{"bar16", bar16},
                      Scaled{"div4", div4}, Scaled{"max8", max8},
                      Scaled{"mult4", mult4}, Scaled{"sqrt8", sqrt8},
                      Scaled{"square4", square4}, Scaled{"dec4", dec4},
                      Scaled{"priority16", priority16},
                      Scaled{"voter15", voter15},
                      Scaled{"cavlc", cavlc_full}, Scaled{"ctrl", ctrl_full},
                      Scaled{"router", router_full},
                      Scaled{"int2float", int2float_full}),
    [](const ::testing::TestParamInfo<Scaled>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace plim
