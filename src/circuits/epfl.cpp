#include "circuits/epfl.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "circuits/components.hpp"
#include "mig/random.hpp"

namespace plim::circuits {

using mig::Mig;
using mig::Signal;

namespace {

Bus slice(const Bus& bus, std::size_t from, std::size_t count) {
  assert(from + count <= bus.size());
  return Bus(bus.begin() + static_cast<std::ptrdiff_t>(from),
             bus.begin() + static_cast<std::ptrdiff_t>(from + count));
}

/// Two's complement negation (0 - v).
Bus negate(Mig& m, const Bus& v) {
  Bus inverted(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    inverted[i] = !v[i];
  }
  return add(m, inverted, constant_bus(m, static_cast<unsigned>(v.size()), 0),
             m.get_constant(true))
      .sum;
}

/// Arithmetic right shift by a fixed amount (wiring only).
Bus asr(const Bus& v, std::size_t k) {
  Bus out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    out[i] = (i + k < v.size()) ? v[i + k] : v.back();
  }
  return out;
}

}  // namespace

// ---- arithmetic benchmarks ----------------------------------------------------

Mig make_adder(unsigned bits) {
  Mig m;
  const Bus a = input_bus(m, bits, "a");
  const Bus b = input_bus(m, bits, "b");
  const auto r = add(m, a, b, m.get_constant(false));
  output_bus(m, r.sum, "s");
  m.create_po(r.carry, "cout");
  return m;
}

Mig make_bar(unsigned bits) {
  assert((bits & (bits - 1)) == 0);
  unsigned log = 0;
  while ((1u << log) < bits) {
    ++log;
  }
  Mig m;
  const Bus data = input_bus(m, bits, "d");
  const Bus amount = input_bus(m, log, "s");
  const Bus out = barrel_shift(m, data, amount, ShiftKind::rotate_left);
  output_bus(m, out, "q");
  return m;
}

Mig make_div(unsigned bits) {
  Mig m;
  const Bus a = input_bus(m, bits, "a");
  const Bus b = input_bus(m, bits, "b");
  const auto r = divide(m, a, b);
  output_bus(m, r.quotient, "q");
  output_bus(m, r.remainder, "r");
  return m;
}

Mig make_log2(unsigned frac_bits) {
  // Fixed-point binary logarithm of a 32-bit integer by the squaring
  // method: 5 integer bits (the leading-one position) followed by
  // `frac_bits` fraction bits f_0 (MSB) … f_{frac-1}. The software model
  // in tests/test_epfl.cpp replicates this bit-exactly.
  Mig m;
  const Bus x = input_bus(m, 32, "x");

  const auto lod = priority_encode(m, x, PriorityOrder::msb_first);
  // priority_encode returns the index of the highest set bit directly.
  const Bus e = lod.index;  // 5 bits
  // normalized = x << (31 - e); 31 - e == ~e for 5-bit e.
  Bus shift_amount(5);
  for (int i = 0; i < 5; ++i) {
    shift_amount[static_cast<std::size_t>(i)] = !e[static_cast<std::size_t>(i)];
  }
  const Bus normalized =
      barrel_shift(m, x, shift_amount, ShiftKind::logical_left);
  Bus mant = slice(normalized, 16, 16);  // 1.15 fixed point

  Bus frac(frac_bits);
  for (unsigned k = 0; k < frac_bits; ++k) {
    const Bus p = multiply(m, mant, mant);  // 32 bits, 2.30
    const Signal ge2 = p[31];
    frac[frac_bits - 1 - k] = ge2;
    // mant = ge2 ? p >> 16 : p >> 15 (stays 16 bits, top bit set).
    mant = mux_bus(m, ge2, slice(p, 16, 16), slice(p, 15, 16));
  }
  output_bus(m, frac, "f");
  output_bus(m, e, "e");
  return m;
}

Mig make_max(unsigned bits) {
  Mig m;
  const Bus w0 = input_bus(m, bits, "a");
  const Bus w1 = input_bus(m, bits, "b");
  const Bus w2 = input_bus(m, bits, "c");
  const Bus w3 = input_bus(m, bits, "d");

  const Signal ge01 = unsigned_ge(m, w0, w1);
  const Bus m01 = mux_bus(m, ge01, w0, w1);
  const Signal ge23 = unsigned_ge(m, w2, w3);
  const Bus m23 = mux_bus(m, ge23, w2, w3);
  const Signal ge = unsigned_ge(m, m01, m23);
  const Bus best = mux_bus(m, ge, m01, m23);

  output_bus(m, best, "m");
  // Winner index: bit1 = lower pair lost; bit0 = right element of the
  // winning pair won.
  m.create_po(m.create_ite(ge, !ge01, !ge23), "idx0");
  m.create_po(!ge, "idx1");
  return m;
}

Mig make_multiplier(unsigned bits) {
  Mig m;
  const Bus a = input_bus(m, bits, "a");
  const Bus b = input_bus(m, bits, "b");
  const Bus p = multiply(m, a, b);
  output_bus(m, p, "p");
  return m;
}

namespace {

/// CORDIC constants shared with the reference model.
constexpr int sin_frac = 24;   // fixed-point fraction bits
constexpr int sin_width = 28;  // working width (sign + 3 int + 24 frac)
constexpr int sin_iters = 24;

std::int64_t sin_gain_constant() {
  double k = 1.0;
  for (int i = 0; i < sin_iters; ++i) {
    k *= std::sqrt(1.0 + std::ldexp(1.0, -2 * i));
  }
  return std::llround(std::ldexp(1.0 / k, sin_frac));
}

std::int64_t sin_atan_constant(int k) {
  // atan(2^-k) / (2π) in 0.24 fixed point (the z channel works in turns).
  const double pi = 4.0 * std::atan(1.0);
  const double turns = std::atan(std::ldexp(1.0, -k)) / (2.0 * pi);
  return std::llround(std::ldexp(turns, sin_frac));
}

}  // namespace

Mig make_sin() {
  // 24-bit angle (fraction of a full turn) → 25-bit two's-complement sine
  // in 1.23 fixed point, computed with a 24-iteration CORDIC in rotation
  // mode plus quadrant folding. tests/test_epfl.cpp mirrors it.
  Mig m;
  const Bus t = input_bus(m, 24, "t");
  const Signal q0 = t[22];
  const Signal q1 = t[23];

  const auto sext = [&](const Bus& b) {
    Bus out = b;
    while (out.size() < sin_width) {
      out.push_back(m.get_constant(false));
    }
    return out;
  };

  Bus x = constant_bus(m, sin_width,
                       static_cast<std::uint64_t>(sin_gain_constant()));
  Bus y = constant_bus(m, sin_width, 0);
  Bus z = sext(slice(t, 0, 22));

  for (int k = 0; k < sin_iters; ++k) {
    const Signal rotate_up = !z[sin_width - 1];  // z ≥ 0
    const Bus xs = asr(x, static_cast<std::size_t>(k));
    const Bus ys = asr(y, static_cast<std::size_t>(k));
    const Bus c = constant_bus(
        m, sin_width, static_cast<std::uint64_t>(sin_atan_constant(k)));

    // Conditional add/sub in one adder: v ± w = v + (w ^ mask) + mask_bit.
    const auto add_sub = [&](const Bus& v, const Bus& w, Signal subtract_if) {
      Bus ww(w.size());
      for (std::size_t i = 0; i < w.size(); ++i) {
        ww[i] = m.create_xor(w[i], subtract_if);
      }
      return add(m, v, ww, subtract_if).sum;
    };

    x = add_sub(x, ys, rotate_up);   // x -= d·(y>>k)
    y = add_sub(y, xs, !rotate_up);  // y += d·(x>>k)
    z = add_sub(z, c, rotate_up);    // z -= d·atan[k]
  }

  // Quadrant folding: q=0→y, 1→x, 2→−y, 3→−x.
  const Bus v = mux_bus(m, q0, x, y);
  const Bus nv = negate(m, v);
  const Bus folded = mux_bus(m, q1, nv, v);
  // Emit 25 bits of 1.23 fixed point (drop one fraction bit).
  output_bus(m, slice(folded, 1, 25), "s");
  return m;
}

Mig make_sqrt(unsigned bits) {
  Mig m;
  const Bus a = input_bus(m, bits, "a");
  const Bus r = isqrt(m, a);
  output_bus(m, r, "r");
  return m;
}

Mig make_square(unsigned bits) {
  Mig m;
  const Bus a = input_bus(m, bits, "a");
  const Bus p = multiply(m, a, a);
  output_bus(m, p, "p");
  return m;
}

// ---- control benchmarks (interface-faithful substitutions) --------------------

Mig make_cavlc() {
  Mig m;
  const Bus in = input_bus(m, 10, "x");
  const Bus t = slice(in, 0, 5);
  const Bus l = slice(in, 5, 5);

  const Signal ge = unsigned_ge(m, t, l);
  const Bus mn = mux_bus(m, ge, l, t);
  output_bus(m, mn, "min");           // 5
  m.create_po(ge, "ge");              // 1
  m.create_po(equals(m, t, l), "eq"); // 1
  Bus x(5);
  for (int i = 0; i < 5; ++i) {
    x[static_cast<std::size_t>(i)] =
        m.create_xor(t[static_cast<std::size_t>(i)],
                     l[static_cast<std::size_t>(i)]);
  }
  m.create_po(reduce_xor(m, x), "par");  // 1
  const Bus pc = popcount(m, t);         // 3 bits for 5 inputs
  for (int i = 0; i < 3; ++i) {
    m.create_po(pc[static_cast<std::size_t>(i)],
                "cnt" + std::to_string(i));  // 3
  }
  assert(m.num_pos() == 11);
  return m;
}

Mig make_ctrl() {
  Mig m;
  const Bus in = input_bus(m, 7, "x");
  const Bus op = slice(in, 0, 3);
  const Bus fn = slice(in, 3, 2);
  const Signal fl0 = in[5];
  const Signal fl1 = in[6];

  const Bus op_oh = decode(m, op);  // 8
  const Bus fn_oh = decode(m, fn);  // 4
  output_bus(m, op_oh, "op");
  output_bus(m, fn_oh, "fn");
  m.create_po(m.create_and(fl0, fl1), "c0");
  m.create_po(m.create_or(fl0, fl1), "c1");
  m.create_po(m.create_xor(fl0, fl1), "c2");
  m.create_po(
      m.create_or(m.create_or(op_oh[0], op_oh[2]),
                  m.create_or(op_oh[4], op_oh[6])),
      "c3");
  m.create_po(m.create_or(op_oh[1], op_oh[3]), "c4");
  m.create_po(m.create_and(m.create_or(op_oh[5], op_oh[7]), fn_oh[0]), "c5");
  m.create_po(m.create_or(fn_oh[1], fn_oh[3]), "c6");
  m.create_po(m.create_and(fl0, fn_oh[2]), "c7");
  m.create_po(m.create_and(op_oh[0], fl1), "c8");
  m.create_po(reduce_xor(m, op), "c9");
  m.create_po(m.create_or(op_oh[7], m.create_and(fn_oh[0], fl0)), "c10");
  m.create_po(m.create_ite(fl0, op_oh[1], op_oh[2]), "c11");
  m.create_po(reduce_and(m, op), "c12");
  m.create_po(reduce_or(m, in), "c13");
  assert(m.num_pos() == 26);
  return m;
}

Mig make_dec(unsigned addr_bits) {
  Mig m;
  const Bus a = input_bus(m, addr_bits, "a");
  const Bus oh = decode(m, a);
  output_bus(m, oh, "d");
  return m;
}

Mig make_i2c() {
  Mig m;
  const Bus state = input_bus(m, 8, "state");
  const Bus bit_cnt = input_bus(m, 8, "bcnt");
  const Bus byte_cnt = input_bus(m, 8, "Bcnt");
  const Bus shift = input_bus(m, 32, "sh");
  const Bus data_wr = input_bus(m, 32, "dw");
  const Bus addr = input_bus(m, 16, "ad");
  const Bus prescale = input_bus(m, 16, "pr");
  const Bus ctrl = input_bus(m, 8, "ct");
  const Bus flags = input_bus(m, 8, "fl");
  const Bus timeout = input_bus(m, 8, "to");
  const Bus spare = input_bus(m, 3, "sp");
  assert(m.num_pis() == 147);

  const Bus one8 = constant_bus(m, 8, 1);
  const Bus zero8 = constant_bus(m, 8, 0);

  // Counters.
  const Bus bit_inc = add(m, bit_cnt, one8, m.get_constant(false)).sum;
  const Bus bit_next = mux_bus(m, ctrl[0], bit_inc, zero8);
  output_bus(m, bit_next, "bcnt_n");  // 8
  const Signal bit_wrap = equals(m, slice(bit_cnt, 0, 3), constant_bus(m, 3, 7));
  Bus byte_inc = add(m, byte_cnt, zero8, bit_wrap).sum;
  output_bus(m, byte_inc, "Bcnt_n");  // 8

  // Next state: advance when flags[1].
  const Bus state_next = add(m, state, zero8, flags[1]).sum;
  output_bus(m, state_next, "state_n");  // 8

  // Shift register: serial shift or parallel load.
  Bus shifted(32);
  shifted[0] = flags[0];
  for (int i = 1; i < 32; ++i) {
    shifted[static_cast<std::size_t>(i)] = shift[static_cast<std::size_t>(i - 1)];
  }
  const Bus shift_next = mux_bus(m, ctrl[1], shifted, data_wr);
  output_bus(m, shift_next, "sh_n");  // 32

  Bus data_rd(32);
  for (int i = 0; i < 32; ++i) {
    data_rd[static_cast<std::size_t>(i)] =
        m.create_ite(ctrl[2], shift[static_cast<std::size_t>(i)],
                     m.create_xor(data_wr[static_cast<std::size_t>(i)],
                                  shift[static_cast<std::size_t>(i)]));
  }
  output_bus(m, data_rd, "dr");  // 32

  m.create_po(equals(m, slice(addr, 0, 8), slice(shift, 0, 8)), "amatch");
  m.create_po(reduce_or(m, state), "busy");
  m.create_po(reduce_and(m, slice(bit_cnt, 0, 3)), "done");
  m.create_po(m.create_and(flags[2], timeout[7]), "err");
  m.create_po(m.create_xor(prescale[0], prescale[15]), "scl");
  m.create_po(shift[31], "sda");
  m.create_po(equals(m, slice(prescale, 0, 8), timeout), "phit");  // 7 so far

  const Bus grants_raw = decode(m, slice(byte_cnt, 0, 3));
  const Signal busy = reduce_or(m, state);
  for (int i = 0; i < 8; ++i) {
    m.create_po(m.create_and(grants_raw[static_cast<std::size_t>(i)], busy),
                "gr" + std::to_string(i));  // 8
  }

  for (int i = 0; i < 16; ++i) {
    m.create_po(
        m.create_xor(m.create_xor(addr[static_cast<std::size_t>(i)],
                                  prescale[static_cast<std::size_t>(i)]),
                     m.create_xor(data_wr[static_cast<std::size_t>(i)],
                                  data_wr[static_cast<std::size_t>(i + 16)])),
        "ck" + std::to_string(i));  // 16
  }

  // Status block (23 bits): popcounts, comparisons, arithmetic.
  const Bus pc_sh = popcount(m, shift);    // 6
  const Bus pc_dw = popcount(m, data_wr);  // 6
  output_bus(m, pc_sh, "psh");
  output_bus(m, pc_dw, "pdw");
  m.create_po(unsigned_ge(m, addr, prescale), "agep");
  const Bus diff = subtract(m, timeout, ctrl).difference;  // 8
  output_bus(m, diff, "df");
  m.create_po(reduce_xor(m, flags), "fpar");
  m.create_po(reduce_or(m, spare), "sp_any");
  assert(m.num_pos() == 142);
  return m;
}

Mig make_int2float() {
  // 11-bit two's-complement integer → tiny float {sign, exp[3] (saturating),
  // mant[3]}; zero maps to all-zero. Mirrored by ref_int2float.
  Mig m;
  const Bus in = input_bus(m, 11, "x");
  const Signal sign = in[10];
  const Bus low = slice(in, 0, 10);
  const Bus mag = mux_bus(m, sign, negate(m, low), low);

  const auto lod = priority_encode(m, mag, PriorityOrder::msb_first);
  const Bus p = lod.index;  // 4 bits, 0..9
  const Signal nonzero = lod.valid;

  // shift = 9 - p, then normalize so the leading one sits at bit 9.
  const Bus shift = subtract(m, constant_bus(m, 4, 9), p).difference;
  const Bus norm = barrel_shift(m, mag, shift, ShiftKind::logical_left);

  // exp = min(p, 7); mant = norm[8:6].
  const Signal sat = p[3];
  Bus exp(3);
  for (int i = 0; i < 3; ++i) {
    exp[static_cast<std::size_t>(i)] =
        m.create_or(p[static_cast<std::size_t>(i)], sat);
  }
  m.create_po(m.create_and(sign, nonzero), "s");
  for (int i = 0; i < 3; ++i) {
    m.create_po(m.create_and(exp[static_cast<std::size_t>(i)], nonzero),
                "e" + std::to_string(i));
  }
  for (int i = 0; i < 3; ++i) {
    m.create_po(m.create_and(norm[static_cast<std::size_t>(6 + i)], nonzero),
                "m" + std::to_string(i));
  }
  assert(m.num_pos() == 7);
  return m;
}

Mig make_mem_ctrl() {
  // Synthetic multi-port memory controller: 16 requesters, 8 banks.
  // Inputs: per port {addr 32, wdata 16, len 8, req, wr, prio 2} = 60×16,
  // 8 bank bases ×16, refresh 16, mode 16, qos 4×16, spare 20 → 1204.
  Mig m;
  constexpr int ports = 16;
  std::vector<Bus> addr(ports), wdata(ports), len(ports), prio(ports);
  Bus req(ports), wr(ports);
  for (int p = 0; p < ports; ++p) {
    const std::string sp = std::to_string(p);
    addr[static_cast<std::size_t>(p)] = input_bus(m, 32, "a" + sp + "_");
    wdata[static_cast<std::size_t>(p)] = input_bus(m, 16, "w" + sp + "_");
    len[static_cast<std::size_t>(p)] = input_bus(m, 8, "l" + sp + "_");
    req[static_cast<std::size_t>(p)] = m.create_pi("req" + sp);
    wr[static_cast<std::size_t>(p)] = m.create_pi("wr" + sp);
    prio[static_cast<std::size_t>(p)] = input_bus(m, 2, "p" + sp + "_");
  }
  std::vector<Bus> base(8);
  for (int b = 0; b < 8; ++b) {
    base[static_cast<std::size_t>(b)] =
        input_bus(m, 16, "base" + std::to_string(b) + "_");
  }
  const Bus refresh = input_bus(m, 16, "rf");
  const Bus mode = input_bus(m, 16, "md");
  std::vector<Bus> qos(4);
  for (int q = 0; q < 4; ++q) {
    qos[static_cast<std::size_t>(q)] =
        input_bus(m, 16, "q" + std::to_string(q) + "_");
  }
  const Bus spare = input_bus(m, 20, "sp");
  assert(m.num_pis() == 1204);

  // Bank decode per port (addr[6:4] selects the bank).
  std::vector<Bus> bank_oh(ports);
  for (int p = 0; p < ports; ++p) {
    bank_oh[static_cast<std::size_t>(p)] =
        decode(m, slice(addr[static_cast<std::size_t>(p)], 4, 3));
  }

  // Per bank: who requests it, fixed-priority winner, grant lines.
  std::vector<Signal> grant(static_cast<std::size_t>(ports),
                            m.get_constant(false));
  for (int b = 0; b < 8; ++b) {
    Bus wants(ports);
    for (int p = 0; p < ports; ++p) {
      wants[static_cast<std::size_t>(p)] =
          m.create_and(req[static_cast<std::size_t>(p)],
                       bank_oh[static_cast<std::size_t>(p)]
                              [static_cast<std::size_t>(b)]);
    }
    const auto arb = priority_encode(m, wants, PriorityOrder::lsb_first);
    output_bus(m, arb.index, "bw" + std::to_string(b) + "_");  // 4×8
    m.create_po(arb.valid, "bv" + std::to_string(b));          // 1×8
    // Bank-level address: base + winning port's low address bits (use the
    // OR-reduction of granted addresses — only one port wins).
    Bus granted(16, m.get_constant(false));
    Signal none_before = m.get_constant(true);
    for (int p = 0; p < ports; ++p) {
      const Signal wins =
          m.create_and(wants[static_cast<std::size_t>(p)], none_before);
      none_before = m.create_and(none_before,
                                 !wants[static_cast<std::size_t>(p)]);
      grant[static_cast<std::size_t>(p)] =
          m.create_or(grant[static_cast<std::size_t>(p)], wins);
      for (int i = 0; i < 16; ++i) {
        granted[static_cast<std::size_t>(i)] = m.create_or(
            granted[static_cast<std::size_t>(i)],
            m.create_and(wins, addr[static_cast<std::size_t>(p)]
                                   [static_cast<std::size_t>(i)]));
      }
    }
    const Bus mapped =
        add(m, granted, base[static_cast<std::size_t>(b)],
            m.get_constant(false))
            .sum;
    output_bus(m, mapped, "ba" + std::to_string(b) + "_");  // 16×8
  }

  // Per port: grant, ack, mapped address (addr + zero-extended length),
  // response data, status byte.
  for (int p = 0; p < ports; ++p) {
    const std::string sp = std::to_string(p);
    const auto pz = static_cast<std::size_t>(p);
    m.create_po(grant[pz], "gnt" + sp);                       // 1×16
    m.create_po(m.create_and(grant[pz], !wr[pz]), "ack" + sp);  // 1×16
    Bus len32 = len[pz];
    while (len32.size() < 32) {
      len32.push_back(m.get_constant(false));
    }
    const Bus end_addr = add(m, addr[pz], len32, m.get_constant(false)).sum;
    output_bus(m, end_addr, "ea" + sp + "_");  // 32×16
    Bus resp(16);
    for (int i = 0; i < 16; ++i) {
      resp[static_cast<std::size_t>(i)] = m.create_ite(
          wr[pz], wdata[pz][static_cast<std::size_t>(i)],
          m.create_xor(mode[static_cast<std::size_t>(i)],
                       addr[pz][static_cast<std::size_t>(i)]));
    }
    output_bus(m, resp, "rd" + sp + "_");  // 16×16
    // Status byte: qos compare, parity, in-flight flags.
    const std::size_t qsel = static_cast<std::size_t>(p % 4);
    m.create_po(unsigned_ge(m, len32, constant_bus(m, 32, 8)), "big" + sp);
    m.create_po(reduce_xor(m, addr[pz]), "apar" + sp);
    m.create_po(reduce_xor(m, wdata[pz]), "dpar" + sp);
    m.create_po(unsigned_ge(m, qos[qsel], slice(addr[pz], 16, 16)),
                "qok" + sp);
    m.create_po(m.create_and(req[pz], prio[pz][1]), "hot" + sp);
    m.create_po(m.create_or(wr[pz], prio[pz][0]), "wop" + sp);
    m.create_po(equals(m, slice(addr[pz], 0, 16), refresh), "rhit" + sp);
    m.create_po(reduce_or(m, len[pz]), "nz" + sp);  // 8×16 status bits
  }

  // Global status block.
  const Bus pc_req = popcount(m, req);  // 5
  output_bus(m, pc_req, "nreq");
  Bus sum_len(12, m.get_constant(false));
  for (int p = 0; p < ports; ++p) {
    Bus l12 = len[static_cast<std::size_t>(p)];
    while (l12.size() < 12) {
      l12.push_back(m.get_constant(false));
    }
    sum_len = add(m, sum_len, l12, m.get_constant(false)).sum;
  }
  output_bus(m, sum_len, "slen");  // 12
  Bus axor(32, m.get_constant(false));
  Bus aor(32, m.get_constant(false));
  Bus aand(32, m.get_constant(true));
  for (int p = 0; p < ports; ++p) {
    for (int i = 0; i < 32; ++i) {
      const auto iz = static_cast<std::size_t>(i);
      const auto pz = static_cast<std::size_t>(p);
      axor[iz] = m.create_xor(axor[iz], addr[pz][iz]);
      aor[iz] = m.create_or(aor[iz], addr[pz][iz]);
      aand[iz] = m.create_and(aand[iz], addr[pz][iz]);
    }
  }
  output_bus(m, axor, "axor");  // 32
  output_bus(m, aor, "aor");    // 32
  output_bus(m, aand, "aand");  // 32
  // Refresh engine: due when refresh ≥ mode; next counter value.
  m.create_po(unsigned_ge(m, refresh, mode), "rdue");  // 1
  const Bus rnext =
      add(m, refresh, constant_bus(m, 16, 1), m.get_constant(false)).sum;
  output_bus(m, rnext, "rnxt");                       // 16
  m.create_po(reduce_xor(m, spare), "sppar");          // 1
  m.create_po(unsigned_ge(m, qos[0], qos[1]), "q01");  // 1
  m.create_po(unsigned_ge(m, qos[2], qos[3]), "q23");  // 1
  m.create_po(reduce_xor(m, qos[1]), "qxor");          // 1
  m.create_po(reduce_and(m, mode), "mall");            // 1
  assert(m.num_pos() == 1231);
  return m;
}

Mig make_priority(unsigned bits) {
  Mig m;
  const Bus in = input_bus(m, bits, "x");
  const auto enc = priority_encode(m, in, PriorityOrder::lsb_first);
  output_bus(m, enc.index, "i");
  m.create_po(enc.valid, "v");
  return m;
}

Mig make_router() {
  Mig m;
  std::vector<Bus> dest(4), tag(4);
  Bus valid(4);
  for (int p = 0; p < 4; ++p) {
    const std::string sp = std::to_string(p);
    dest[static_cast<std::size_t>(p)] = input_bus(m, 8, "d" + sp + "_");
    tag[static_cast<std::size_t>(p)] = input_bus(m, 5, "t" + sp + "_");
    valid[static_cast<std::size_t>(p)] = m.create_pi("v" + sp);
  }
  const Bus own = input_bus(m, 4, "own");
  assert(m.num_pis() == 60);

  Bus match(4);
  for (int p = 0; p < 4; ++p) {
    const auto pz = static_cast<std::size_t>(p);
    match[pz] = m.create_and(valid[pz], equals(m, slice(dest[pz], 4, 4), own));
    m.create_po(match[pz], "m" + std::to_string(p));  // 4
  }
  // Fixed-priority arbitration among matching ports.
  Bus grant(4);
  Signal none_before = m.get_constant(true);
  for (int p = 0; p < 4; ++p) {
    const auto pz = static_cast<std::size_t>(p);
    grant[pz] = m.create_and(match[pz], none_before);
    none_before = m.create_and(none_before, !match[pz]);
    m.create_po(grant[pz], "g" + std::to_string(p));  // 4
  }
  const auto enc = priority_encode(m, match, PriorityOrder::lsb_first);
  output_bus(m, enc.index, "wi");   // 2
  m.create_po(enc.valid, "wv");     // 1
  // Winner tag / dest low nibble via grant-masked OR.
  Bus wtag(5, m.get_constant(false));
  Bus wdest(4, m.get_constant(false));
  for (int p = 0; p < 4; ++p) {
    const auto pz = static_cast<std::size_t>(p);
    for (int i = 0; i < 5; ++i) {
      wtag[static_cast<std::size_t>(i)] =
          m.create_or(wtag[static_cast<std::size_t>(i)],
                      m.create_and(grant[pz], tag[pz][static_cast<std::size_t>(i)]));
    }
    for (int i = 0; i < 4; ++i) {
      wdest[static_cast<std::size_t>(i)] =
          m.create_or(wdest[static_cast<std::size_t>(i)],
                      m.create_and(grant[pz], dest[pz][static_cast<std::size_t>(i)]));
    }
  }
  output_bus(m, wtag, "wt");   // 5
  output_bus(m, wdest, "wd");  // 4
  Bus ck(5);
  for (int i = 0; i < 5; ++i) {
    const auto iz = static_cast<std::size_t>(i);
    ck[iz] = m.create_xor(m.create_xor(tag[0][iz], tag[1][iz]),
                          m.create_xor(tag[2][iz], tag[3][iz]));
  }
  output_bus(m, ck, "ck");  // 5
  const Bus pcv = popcount(m, valid);  // 3
  output_bus(m, pcv, "nv");
  m.create_po(reduce_xor(m, own), "opar");
  m.create_po(reduce_and(m, match), "all");
  assert(m.num_pos() == 30);
  return m;
}

Mig make_voter(unsigned inputs) {
  Mig m;
  const Bus in = input_bus(m, inputs, "x");
  const Bus count = popcount(m, in);
  const Bus threshold =
      constant_bus(m, static_cast<unsigned>(count.size()), (inputs + 1) / 2);
  m.create_po(unsigned_ge(m, count, threshold), "maj");
  return m;
}

// ---- registry -----------------------------------------------------------------

namespace {

/// The registry serves every benchmark in a randomized (deterministic,
/// still topological) node order: real netlist files — like the paper's
/// EPFL AIGs — come in tool-determined order, while our constructors
/// would otherwise emit an unrealistically schedule-friendly depth-first
/// order that flatters the index-order "naïve" baseline.
Mig serve(Mig m, std::uint64_t seed) {
  return shuffle_topological(m, seed);
}

Mig build_adder_full() { return serve(make_adder(128), 0xadde); }
Mig build_bar_full() { return serve(make_bar(128), 0xba5); }
Mig build_div_full() { return serve(make_div(64), 0xd1f); }
Mig build_log2_full() { return serve(make_log2(27), 0x106); }
Mig build_max_full() { return serve(make_max(128), 0x3a); }
Mig build_multiplier_full() { return serve(make_multiplier(64), 0x31c); }
Mig build_sin_full() { return serve(make_sin(), 0x51e); }
Mig build_sqrt_full() { return serve(make_sqrt(128), 0x5c12); }
Mig build_square_full() { return serve(make_square(64), 0x52a); }
Mig build_cavlc_full() { return serve(make_cavlc(), 0xca); }
Mig build_ctrl_full() { return serve(make_ctrl(), 0xc1); }
Mig build_dec_full() { return serve(make_dec(8), 0xdec); }
Mig build_i2c_full() { return serve(make_i2c(), 0x12c); }
Mig build_int2float_full() { return serve(make_int2float(), 0x12f); }
Mig build_mem_ctrl_full() { return serve(make_mem_ctrl(), 0x3e3); }
Mig build_priority_full() { return serve(make_priority(128), 0x9e10); }
Mig build_router_full() { return serve(make_router(), 0x107); }
Mig build_voter_full() { return serve(make_voter(1001), 0x707e); }

}  // namespace

const std::vector<BenchmarkSpec>& epfl_suite() {
  // PaperRow fields: {N,I,R naïve | N,I,R after rewriting | I,R compiled},
  // transcribed from Table 1 of the paper.
  static const std::vector<BenchmarkSpec> suite = {
      {"adder", 256, 129,
       {1020, 2844, 512, 1020, 2037, 386, 1911, 259},
       build_adder_full},
      {"bar", 135, 128,
       {3336, 8136, 523, 3240, 5895, 371, 6011, 332},
       build_bar_full},
      {"div", 128, 128,
       {57247, 146617, 687, 50841, 147026, 771, 147608, 590},
       build_div_full},
      {"log2", 32, 32,
       {32060, 78885, 1597, 31419, 60402, 1487, 60184, 1256},
       build_log2_full},
      {"max", 512, 130,
       {2865, 6731, 1021, 2845, 5092, 867, 4996, 579},
       build_max_full},
      {"multiplier", 128, 128,
       {27062, 76156, 2798, 26951, 56428, 1672, 56009, 419},
       build_multiplier_full},
      {"sin", 24, 25,
       {5416, 12479, 438, 5344, 10300, 426, 10223, 402},
       build_sin_full},
      {"sqrt", 128, 64,
       {24618, 60691, 375, 22351, 47454, 433, 49782, 323},
       build_sqrt_full},
      {"square", 64, 128,
       {18484, 54704, 3272, 18085, 33625, 3247, 33369, 452},
       build_square_full},
      {"cavlc", 10, 11,
       {693, 1919, 262, 691, 1146, 236, 1124, 102},
       build_cavlc_full},
      {"ctrl", 7, 26,
       {174, 499, 66, 156, 258, 55, 263, 39},
       build_ctrl_full},
      {"dec", 8, 256,
       {304, 822, 257, 304, 783, 257, 777, 258},
       build_dec_full},
      {"i2c", 147, 142,
       {1342, 3314, 545, 1311, 2119, 487, 2028, 234},
       build_i2c_full},
      {"int2float", 11, 7,
       {260, 648, 99, 257, 432, 83, 428, 41},
       build_int2float_full},
      {"mem_ctrl", 1204, 1231,
       {46836, 113244, 8127, 46519, 85785, 6708, 84963, 2223},
       build_mem_ctrl_full},
      {"priority", 128, 8,
       {978, 2461, 315, 977, 2126, 241, 2147, 149},
       build_priority_full},
      {"router", 60, 30,
       {257, 503, 117, 257, 407, 112, 401, 64},
       build_router_full},
      {"voter", 1001, 1,
       {13758, 38002, 1749, 12992, 25009, 1544, 24990, 1063},
       build_voter_full},
  };
  return suite;
}

Mig build_benchmark(const std::string& name) {
  for (const auto& spec : epfl_suite()) {
    if (spec.name == name) {
      return spec.build();
    }
  }
  throw std::invalid_argument("unknown benchmark: " + name);
}

}  // namespace plim::circuits
