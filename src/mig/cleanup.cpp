#include "mig/cleanup.hpp"

namespace plim::mig {

std::vector<bool> reachable_from_pos(const Mig& mig) {
  std::vector<bool> reach(mig.size(), false);
  reach[0] = true;
  mig.foreach_pi([&](node n) { reach[n] = true; });
  std::vector<node> stack;
  mig.foreach_po([&](Signal f, std::uint32_t) {
    if (!reach[f.index()]) {
      reach[f.index()] = true;
      stack.push_back(f.index());
    }
  });
  while (!stack.empty()) {
    const node n = stack.back();
    stack.pop_back();
    for (const auto f : mig.fanins(n)) {
      if (!reach[f.index()]) {
        reach[f.index()] = true;
        stack.push_back(f.index());
      }
    }
  }
  return reach;
}

Mig cleanup_dangling(const Mig& mig) {
  const auto reachable = reachable_from_pos(mig);
  Mig out;
  out.reserve(mig.size());
  // old signal -> new signal for non-complemented node roots
  std::vector<Signal> map(mig.size(), out.get_constant(false));
  mig.foreach_pi([&](node n) {
    map[n] = out.create_pi(mig.pi_name(mig.pi_index(n)));
  });
  mig.foreach_gate([&](node n) {
    if (!reachable[n]) {
      return;
    }
    const auto& f = mig.fanins(n);
    const auto get = [&](Signal s) { return map[s.index()] ^ s.complemented(); };
    map[n] = out.create_maj(get(f[0]), get(f[1]), get(f[2]));
  });
  mig.foreach_po([&](Signal f, std::uint32_t i) {
    out.create_po(map[f.index()] ^ f.complemented(), mig.po_name(i));
  });
  return out;
}

}  // namespace plim::mig
