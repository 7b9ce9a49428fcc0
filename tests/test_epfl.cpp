#include "circuits/epfl.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "mig/simulation.hpp"
#include "util/rng.hpp"

namespace plim::circuits {
namespace {

// ---- bit-exact software models of the generators ------------------------
// The non-trivial circuits are checked against these models; plain
// arithmetic blocks (adder, multiplier, divider, sqrt, shifter, …) are
// checked against built-in integer operations instead.

constexpr int sin_frac = 24;
constexpr int sin_width = 28;
constexpr int sin_iters = 24;
constexpr std::int64_t sin_mask = (std::int64_t{1} << sin_width) - 1;

std::int64_t wrap(std::int64_t v) {
  v &= sin_mask;
  if (v & (std::int64_t{1} << (sin_width - 1))) {
    v -= std::int64_t{1} << sin_width;
  }
  return v;
}

std::int64_t gain_constant() {
  double k = 1.0;
  for (int i = 0; i < sin_iters; ++i) {
    k *= std::sqrt(1.0 + std::ldexp(1.0, -2 * i));
  }
  return std::llround(std::ldexp(1.0 / k, sin_frac));
}

std::int64_t atan_constant(int k) {
  const double pi = 4.0 * std::atan(1.0);
  const double turns = std::atan(std::ldexp(1.0, -k)) / (2.0 * pi);
  return std::llround(std::ldexp(turns, sin_frac));
}

/// Model of make_log2(frac_bits): returns {e(5) : f_0…f_{frac-1}} packed
/// little-endian exactly like the circuit's PO order (f first, e on top).
std::uint64_t ref_log2(std::uint32_t x, unsigned frac_bits) {
  // Leading-one position (0 when x == 0, like the circuit's encoder).
  unsigned e = 0;
  for (unsigned i = 0; i < 32; ++i) {
    if ((x >> i) & 1u) {
      e = i;
    }
  }
  const std::uint32_t normalized = x == 0 ? 0 : x << (31 - e);
  std::uint64_t mant = normalized >> 16;  // 1.15

  std::uint64_t frac = 0;  // f_0 at bit frac_bits-1 (matches PO order)
  for (unsigned k = 0; k < frac_bits; ++k) {
    const std::uint64_t p = (mant * mant) & 0xffffffffULL;
    const bool ge2 = (p >> 31) & 1;
    if (ge2) {
      frac |= std::uint64_t{1} << (frac_bits - 1 - k);
    }
    mant = ge2 ? (p >> 16) : (p >> 15);
    mant &= 0xffffULL;
  }
  return frac | (std::uint64_t{e} << frac_bits);
}

/// Model of make_sin(): 24-bit turn fraction → 25-bit two's-complement
/// 1.23 sine value (low 25 bits of the result).
std::uint32_t ref_sin(std::uint32_t t) {
  t &= 0xffffff;
  const unsigned q = t >> 22;
  const std::int64_t phi = t & 0x3fffff;

  std::int64_t x = gain_constant();
  std::int64_t y = 0;
  std::int64_t z = phi;
  for (int k = 0; k < sin_iters; ++k) {
    const bool up = z >= 0;
    const std::int64_t xs = x >> k;
    const std::int64_t ys = y >> k;
    if (up) {
      x = wrap(x - ys);
      y = wrap(y + xs);
      z = wrap(z - atan_constant(k));
    } else {
      x = wrap(x + ys);
      y = wrap(y - xs);
      z = wrap(z + atan_constant(k));
    }
  }
  std::int64_t v = (q & 1) ? x : y;
  if (q & 2) {
    v = wrap(-v);
  }
  // Drop one fraction bit, keep 25 bits (arithmetic shift then mask).
  return static_cast<std::uint32_t>((v >> 1) & 0x1ffffff);
}

/// Model of make_int2float(): 11-bit two's-complement input → 7-bit
/// {s, e[3], m[3]} packed little-endian (s = bit 0).
std::uint32_t ref_int2float(std::uint32_t x11) {
  x11 &= 0x7ff;
  const bool sign = (x11 >> 10) & 1;
  const std::uint32_t low = x11 & 0x3ff;
  const std::uint32_t mag = (sign ? (1024 - low) : low) & 0x3ff;
  if (mag == 0) {
    return 0;
  }
  unsigned p = 0;
  for (unsigned i = 0; i < 10; ++i) {
    if ((mag >> i) & 1u) {
      p = i;
    }
  }
  const std::uint32_t norm = (mag << (9 - p)) & 0x3ff;
  const std::uint32_t exp = p >= 8 ? 7 : p;
  const std::uint32_t man = (norm >> 6) & 7;
  return (sign ? 1u : 0u) | (exp << 1) | (man << 4);
}

std::uint64_t lane_of(const std::vector<std::uint64_t>& words,
                      std::size_t from, std::size_t count, unsigned lane) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < count; ++i) {
    v |= ((words[from + i] >> lane) & 1) << i;
  }
  return v;
}

TEST(EpflSuite, InterfaceWidthsMatchThePaper) {
  ASSERT_EQ(epfl_suite().size(), 18u);
  for (const auto& spec : epfl_suite()) {
    const auto m = spec.build();
    EXPECT_EQ(m.num_pis(), spec.pis) << spec.name;
    EXPECT_EQ(m.num_pos(), spec.pos) << spec.name;
    EXPECT_GT(m.num_gates(), 0u) << spec.name;
  }
}

TEST(EpflSuite, InitialNetworksUseOnlyConstantZeroFanins) {
  // The paper's transposed starting MIGs "only have the constant 0
  // child" — our generators must respect that invariant.
  for (const char* name : {"adder", "cavlc", "router", "priority", "dec"}) {
    const auto m = build_benchmark(name);
    m.foreach_gate([&](mig::node n) {
      for (const auto f : m.fanins(n)) {
        if (m.is_constant(f.index())) {
          EXPECT_FALSE(f.complemented()) << name << " node " << n;
        }
      }
    });
  }
}

TEST(EpflSuite, BuildersAreDeterministic) {
  const auto a = build_benchmark("cavlc");
  const auto b = build_benchmark("cavlc");
  EXPECT_EQ(a.num_gates(), b.num_gates());
  util::Rng rng(1);
  EXPECT_TRUE(mig::random_equivalence_check(a, b, 8, rng));
}

TEST(EpflSuite, UnknownNameThrows) {
  EXPECT_THROW((void)build_benchmark("hyp"), std::invalid_argument);
}

TEST(EpflAdder, FullWidthAddition) {
  const auto m = build_benchmark("adder");
  util::Rng rng(3);
  std::vector<std::uint64_t> in(m.num_pis());
  for (auto& w : in) {
    w = rng.next();
  }
  const auto out = mig::simulate_words(m, in);
  for (unsigned lane = 0; lane < 64; ++lane) {
    // Check 128-bit addition in two 64-bit halves with carry.
    const auto a_lo = lane_of(in, 0, 64, lane);
    const auto a_hi = lane_of(in, 64, 64, lane);
    const auto b_lo = lane_of(in, 128, 64, lane);
    const auto b_hi = lane_of(in, 192, 64, lane);
    const auto s_lo = a_lo + b_lo;
    const bool carry_lo = s_lo < a_lo;
    const auto s_hi = a_hi + b_hi + (carry_lo ? 1 : 0);
    const bool carry_out =
        s_hi < a_hi || (carry_lo && s_hi == a_hi && b_hi == ~std::uint64_t{0});
    EXPECT_EQ(lane_of(out, 0, 64, lane), s_lo) << lane;
    EXPECT_EQ(lane_of(out, 64, 64, lane), s_hi) << lane;
    EXPECT_EQ(lane_of(out, 128, 1, lane), carry_out ? 1u : 0u) << lane;
  }
}

TEST(EpflBar, RotatesLeft) {
  const auto m = build_benchmark("bar");
  util::Rng rng(4);
  std::vector<std::uint64_t> in(m.num_pis());
  for (auto& w : in) {
    w = rng.next();
  }
  const auto out = mig::simulate_words(m, in);
  for (unsigned lane = 0; lane < 64; ++lane) {
    const unsigned s = static_cast<unsigned>(lane_of(in, 128, 7, lane));
    for (unsigned i = 0; i < 128; ++i) {
      const unsigned src = (i + 128 - s) % 128;
      EXPECT_EQ((out[i] >> lane) & 1, (in[src] >> lane) & 1)
          << "lane " << lane << " bit " << i << " shift " << s;
    }
  }
}

TEST(EpflMax, PicksLargestWordAndIndex) {
  const auto m = make_max(16);  // scaled version, same structure
  util::Rng rng(5);
  std::vector<std::uint64_t> in(m.num_pis());
  for (auto& w : in) {
    w = rng.next();
  }
  const auto out = mig::simulate_words(m, in);
  for (unsigned lane = 0; lane < 64; ++lane) {
    std::uint64_t w[4];
    for (int k = 0; k < 4; ++k) {
      w[k] = lane_of(in, static_cast<std::size_t>(k) * 16, 16, lane);
    }
    const std::uint64_t m01 = std::max(w[0], w[1]);
    const std::uint64_t m23 = std::max(w[2], w[3]);
    const std::uint64_t best = std::max(m01, m23);
    EXPECT_EQ(lane_of(out, 0, 16, lane), best);
    // Index semantics: ge comparisons prefer the lower index on ties.
    const bool ge01 = w[0] >= w[1];
    const bool ge23 = w[2] >= w[3];
    const bool ge = m01 >= m23;
    const unsigned idx =
        ge ? (ge01 ? 0u : 1u) : (ge23 ? 2u : 3u);
    const auto got =
        lane_of(out, 16, 1, lane) | (lane_of(out, 17, 1, lane) << 1);
    EXPECT_EQ(got, idx) << "lane " << lane;
  }
}

TEST(EpflLog2, MatchesReferenceModel) {
  const auto m = build_benchmark("log2");
  util::Rng rng(6);
  std::vector<std::uint64_t> in(m.num_pis());
  for (auto& w : in) {
    w = rng.next();
  }
  const auto out = mig::simulate_words(m, in);
  for (unsigned lane = 0; lane < 64; ++lane) {
    const auto x = static_cast<std::uint32_t>(lane_of(in, 0, 32, lane));
    EXPECT_EQ(lane_of(out, 0, 32, lane), ref_log2(x, 27)) << "x=" << x;
  }
}

TEST(EpflSin, MatchesReferenceModel) {
  const auto m = build_benchmark("sin");
  util::Rng rng(7);
  std::vector<std::uint64_t> in(m.num_pis());
  for (auto& w : in) {
    w = rng.next();
  }
  const auto out = mig::simulate_words(m, in);
  for (unsigned lane = 0; lane < 64; ++lane) {
    const auto t = static_cast<std::uint32_t>(lane_of(in, 0, 24, lane));
    EXPECT_EQ(lane_of(out, 0, 25, lane), ref_sin(t)) << "t=" << t;
  }
}

TEST(EpflSin, ApproximatesRealSine) {
  const auto m = build_benchmark("sin");
  for (const std::uint32_t t : {0u, 0x100000u, 0x3fffffu, 0x400000u,
                                0x800000u, 0xc00000u, 0xeeeeeu}) {
    std::vector<std::uint64_t> in(24);
    for (unsigned i = 0; i < 24; ++i) {
      in[i] = ((t >> i) & 1) ? ~std::uint64_t{0} : 0;
    }
    const auto out = mig::simulate_words(m, in);
    std::int64_t v = static_cast<std::int64_t>(lane_of(out, 0, 25, 0));
    if (v & (1 << 24)) {
      v -= 1 << 25;  // sign extend 25-bit value
    }
    const double got = static_cast<double>(v) / (1 << 23);
    const double angle = static_cast<double>(t) / (1 << 24) * 2.0 *
                         3.14159265358979323846;
    EXPECT_NEAR(got, std::sin(angle), 1e-4) << "t=" << t;
  }
}

TEST(EpflInt2Float, MatchesReferenceModel) {
  const auto m = build_benchmark("int2float");
  for (std::uint32_t x = 0; x < 2048; ++x) {
    std::vector<std::uint64_t> in(11);
    for (unsigned i = 0; i < 11; ++i) {
      in[i] = ((x >> i) & 1) ? ~std::uint64_t{0} : 0;
    }
    const auto out = mig::simulate_words(m, in);
    EXPECT_EQ(lane_of(out, 0, 7, 0), ref_int2float(x)) << "x=" << x;
  }
}

TEST(EpflVoter, ComputesMajorityAtThreshold) {
  const auto m = make_voter(15);
  for (const unsigned ones : {0u, 7u, 8u, 15u}) {
    std::vector<std::uint64_t> in(15, 0);
    for (unsigned i = 0; i < ones; ++i) {
      in[i] = ~std::uint64_t{0};
    }
    const auto out = mig::simulate_words(m, in);
    EXPECT_EQ(out[0] & 1, ones >= 8 ? 1u : 0u) << ones;
  }
}

TEST(EpflPriority, FindsFirstSetBit) {
  const auto m = build_benchmark("priority");
  util::Rng rng(8);
  std::vector<std::uint64_t> in(m.num_pis());
  for (auto& w : in) {
    w = rng.chance(1, 8) ? rng.next() : 0;  // sparse stimulus
  }
  const auto out = mig::simulate_words(m, in);
  for (unsigned lane = 0; lane < 64; ++lane) {
    unsigned expected = 0;
    bool valid = false;
    for (unsigned i = 0; i < 128; ++i) {
      if ((in[i] >> lane) & 1) {
        expected = i;
        valid = true;
        break;
      }
    }
    EXPECT_EQ(lane_of(out, 7, 1, lane), valid ? 1u : 0u);
    if (valid) {
      EXPECT_EQ(lane_of(out, 0, 7, lane), expected);
    }
  }
}

TEST(EpflDec, DecodesOneHot) {
  const auto m = build_benchmark("dec");
  for (const unsigned addr : {0u, 1u, 37u, 200u, 255u}) {
    std::vector<std::uint64_t> in(8);
    for (unsigned i = 0; i < 8; ++i) {
      in[i] = ((addr >> i) & 1) ? ~std::uint64_t{0} : 0;
    }
    const auto out = mig::simulate_words(m, in);
    for (unsigned i = 0; i < 256; ++i) {
      EXPECT_EQ(out[i] & 1, i == addr ? 1u : 0u) << addr;
    }
  }
}

TEST(EpflControlBlocks, StructuralPropertiesHold) {
  // cavlc: min(t,l) output really is the minimum.
  {
    const auto m = build_benchmark("cavlc");
    util::Rng rng(9);
    std::vector<std::uint64_t> in(10);
    for (auto& w : in) {
      w = rng.next();
    }
    const auto out = mig::simulate_words(m, in);
    for (unsigned lane = 0; lane < 64; ++lane) {
      const auto t = lane_of(in, 0, 5, lane);
      const auto l = lane_of(in, 5, 5, lane);
      EXPECT_EQ(lane_of(out, 0, 5, lane), std::min(t, l));
      EXPECT_EQ(lane_of(out, 5, 1, lane), t >= l ? 1u : 0u);
      EXPECT_EQ(lane_of(out, 6, 1, lane), t == l ? 1u : 0u);
    }
  }
  // ctrl: the first 8 outputs are a one-hot decode of the opcode.
  {
    const auto m = build_benchmark("ctrl");
    for (unsigned op = 0; op < 8; ++op) {
      std::vector<std::uint64_t> in(7, 0);
      for (unsigned i = 0; i < 3; ++i) {
        in[i] = ((op >> i) & 1) ? ~std::uint64_t{0} : 0;
      }
      const auto out = mig::simulate_words(m, in);
      for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(out[i] & 1, i == op ? 1u : 0u);
      }
    }
  }
  // i2c: bcnt_next counter increments when ctrl[0] is high, clears when
  // low; router: grants are one-hot and subset of matches.
  {
    const auto m = build_benchmark("i2c");
    util::Rng rng(10);
    std::vector<std::uint64_t> in(m.num_pis());
    for (auto& w : in) {
      w = rng.next();
    }
    const auto out = mig::simulate_words(m, in);
    for (unsigned lane = 0; lane < 8; ++lane) {
      const auto bcnt = lane_of(in, 8, 8, lane);
      const bool en = (in[8 + 8 + 8 + 32 + 32 + 16 + 16] >> lane) & 1;
      const auto next = lane_of(out, 0, 8, lane);
      EXPECT_EQ(next, en ? ((bcnt + 1) & 0xff) : 0u) << lane;
    }
  }
  {
    const auto m = build_benchmark("router");
    util::Rng rng(11);
    std::vector<std::uint64_t> in(m.num_pis());
    for (auto& w : in) {
      w = rng.next();
    }
    const auto out = mig::simulate_words(m, in);
    for (unsigned lane = 0; lane < 64; ++lane) {
      const auto matches = lane_of(out, 0, 4, lane);
      const auto grants = lane_of(out, 4, 4, lane);
      EXPECT_EQ(grants & ~matches, 0u) << "grant without match";
      EXPECT_LE(__builtin_popcountll(grants), 1) << "multiple grants";
      if (matches != 0) {
        EXPECT_EQ(grants, matches & (~matches + 1)) << "not lowest match";
      }
    }
  }
}

}  // namespace
}  // namespace plim::circuits
