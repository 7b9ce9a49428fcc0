#include "mig/random.hpp"

#include <algorithm>
#include <vector>

#include "mig/views.hpp"

namespace plim::mig {

Mig random_mig(const RandomMigOptions& opts, std::uint64_t seed) {
  util::Rng rng(seed);
  Mig mig;
  std::vector<Signal> pool;
  pool.reserve(opts.num_pis + opts.num_gates);
  for (std::uint32_t i = 0; i < opts.num_pis; ++i) {
    pool.push_back(mig.create_pi());
  }

  const auto pick = [&]() -> Signal {
    // Bias toward recent signals: with probability 1/2 draw from the last
    // quarter of the pool, otherwise uniformly.
    const std::size_t size = pool.size();
    std::size_t idx;
    if (size >= 8 && rng.flip()) {
      idx = size - 1 - rng.below(std::max<std::size_t>(1, size / 4));
    } else {
      idx = rng.below(size);
    }
    Signal s = pool[idx];
    if (rng.chance(opts.complement_percent, 100)) {
      s = !s;
    }
    return s;
  };

  std::uint32_t created = 0;
  std::uint32_t attempts = 0;
  const std::uint32_t max_attempts = opts.num_gates * 10 + 100;
  while (created < opts.num_gates && attempts < max_attempts) {
    ++attempts;
    Signal a = pick();
    Signal b = pick();
    Signal c = rng.chance(opts.constant_percent, 100)
                   ? mig.get_constant(rng.flip())
                   : pick();
    const auto before = mig.num_gates();
    const Signal g = mig.create_maj(a, b, c);
    if (mig.num_gates() == before) {
      continue;  // folded or hashed; retry
    }
    pool.push_back(g);
    ++created;
  }

  // POs: the most recent gates (fall back to PIs if no gate survived).
  const std::uint32_t pos = std::max<std::uint32_t>(1, opts.num_pos);
  for (std::uint32_t i = 0; i < pos; ++i) {
    Signal s = pool[pool.size() - 1 - (i % std::min<std::size_t>(
                                              pool.size(),
                                              std::size_t{created} + 1))];
    if (rng.chance(opts.complement_percent, 100)) {
      s = !s;
    }
    mig.create_po(s);
  }
  return mig;
}

Mig shuffle_topological(const Mig& src, std::uint64_t seed) {
  util::Rng rng(seed);
  const FanoutView fanout(src);

  Mig dest;
  dest.reserve(src.size());
  std::vector<Signal> map(src.size(), dest.get_constant(false));
  src.foreach_pi(
      [&](node n) { map[n] = dest.create_pi(src.pi_name(src.pi_index(n))); });

  // Kahn's algorithm over the gates with a randomized ready pool.
  std::vector<std::uint32_t> pending(src.size(), 0);
  std::vector<node> ready;
  src.foreach_gate([&](node n) {
    std::uint32_t gates = 0;
    for (const auto f : src.fanins(n)) {
      if (src.is_gate(f.index())) {
        ++gates;
      }
    }
    pending[n] = gates;
    if (gates == 0) {
      ready.push_back(n);
    }
  });

  while (!ready.empty()) {
    const std::size_t pick = rng.below(ready.size());
    const node n = ready[pick];
    ready[pick] = ready.back();
    ready.pop_back();
    const auto& f = src.fanins(n);
    const auto get = [&](Signal s) { return map[s.index()] ^ s.complemented(); };
    map[n] = dest.create_maj(get(f[0]), get(f[1]), get(f[2]));
    for (const auto p : fanout.parents(n)) {
      if (--pending[p] == 0) {
        ready.push_back(p);
      }
    }
  }

  src.foreach_po([&](Signal f, std::uint32_t i) {
    dest.create_po(map[f.index()] ^ f.complemented(), src.po_name(i));
  });
  return dest;
}

}  // namespace plim::mig
