#include "serve/structural_hash.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace plim::serve {

namespace {

/// splitmix64 finalizer — full-avalanche 64-bit permutation.
constexpr std::uint64_t splitmix(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t load64(const char* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

}  // namespace

std::string StructuralKey::to_hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

void StructuralHasher::mix(std::uint64_t v) noexcept {
  ++words_;
  a_ = splitmix(a_ ^ v);
  // Lane B evolves position-dependently and with a different injection,
  // so the lanes never degenerate into copies of each other.
  b_ = splitmix(b_ + v * 0xd6e8feb86659fd93ULL + words_);
}

StructuralKey StructuralHasher::key() const noexcept {
  // Close both lanes over the word count so prefixes of a stream never
  // share a key with the stream itself.
  StructuralKey k;
  k.hi = splitmix(a_ ^ (words_ * 0xa0761d6478bd642fULL));
  k.lo = splitmix(b_ ^ words_ ^ 0xe7037ed1a0b428dbULL);
  return k;
}

void hash_mig(StructuralHasher& h, const mig::Mig& network) {
  h.mix(network.size());
  h.mix(network.num_pis());
  h.mix(network.num_pos());
  network.foreach_node([&](mig::node n) {
    switch (network.kind(n)) {
      case mig::Mig::NodeKind::constant:
        h.mix(1);
        break;
      case mig::Mig::NodeKind::pi:
        h.mix(2);
        h.mix(network.pi_index(n));
        break;
      case mig::Mig::NodeKind::gate: {
        h.mix(3);
        const auto& fanin = network.fanins(n);
        h.mix(fanin[0].raw());
        h.mix(fanin[1].raw());
        h.mix(fanin[2].raw());
        break;
      }
    }
  });
  network.foreach_po(
      [&](mig::Signal po, std::uint32_t) { h.mix(po.raw()); });
}

void hash_options(StructuralHasher& h, const Options& options) {
  // One word per field, nested sections fenced by sentinels. Mirrors
  // plim::Options field for field, except the schedule fields the
  // Driver ignores — the OptionsSensitivity test fails when a new field
  // is forgotten here.
  h.mix(0x0517);  // options fence
  h.mix(options.banks);

  h.mix(0x0521);  // rewrite
  h.mix(options.rewrite.effort);

  h.mix(0x0522);  // compile
  h.mix_bool(options.compile.smart_candidates);
  h.mix_bool(options.compile.cache_complements);
  h.mix_bool(options.compile.textbook_slots);
  h.mix(static_cast<std::uint64_t>(options.compile.allocation));
  h.mix_bool(options.compile.rram_cap.has_value());
  h.mix(options.compile.rram_cap.value_or(0));
  h.mix_bool(options.compile.degradation.enabled);

  h.mix(0x0523);  // schedule
  h.mix(options.schedule.cost.bus_width);
  h.mix_bool(options.schedule.cluster);
  h.mix(options.schedule.refine_passes);
  h.mix(static_cast<std::uint64_t>(options.schedule.execution));

  h.mix(0x0524);  // verify
  h.mix_bool(options.verify.enabled);
  h.mix(options.verify.rounds);
  h.mix(options.verify.seed);

  h.mix(0x0525);  // trace
  h.mix_bool(options.trace.enabled);
}

StructuralKey structural_key(const mig::Mig& network,
                             const Options& options) {
  StructuralHasher h;
  hash_mig(h, network);
  hash_options(h, options);
  return h.key();
}

ContentKey content_key(CompileRequest::Kind kind, std::string_view content,
                       const Options& options) {
  constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
  constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t lanes[4] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
  const char* p = content.data();
  const char* const end = p + content.size();
  for (; end - p >= 32; p += 32) {
    for (int i = 0; i < 4; ++i) {
      lanes[i] = std::rotl(lanes[i] + load64(p + 8 * i) * kPrime2, 31) *
                 kPrime1;
    }
  }
  StructuralHasher h;
  h.mix(0x0c01);  // content fence
  h.mix(static_cast<std::uint64_t>(kind));
  h.mix(content.size());
  for (const auto lane : lanes) {
    h.mix(lane);
  }
  // The tail (under 32 bytes) in zero-padded words; the length above
  // tells a short tail from trailing zero bytes.
  for (; p < end; p += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p,
                std::min(std::size_t{8}, static_cast<std::size_t>(end - p)));
    h.mix(word);
  }
  hash_options(h, options);
  return h.key();
}

}  // namespace plim::serve
