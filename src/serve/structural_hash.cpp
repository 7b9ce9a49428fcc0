#include "serve/structural_hash.hpp"

#include <algorithm>
#include <bit>
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

/// Streaming two-lane mixer (splitmix64 finalizers over independent
/// states). Both lanes absorb every word with different evolution, so a
/// single-lane collision does not collide the key.
class StructuralHasher {
 public:
  void mix(std::uint64_t v) noexcept {
    ++words_;
    a_ = splitmix(a_ ^ v);
    // Lane B evolves position-dependently and with a different
    // injection, so the lanes never degenerate into copies of each other.
    b_ = splitmix(b_ + v * 0xd6e8feb86659fd93ULL + words_);
  }
  void mix_bool(bool v) noexcept { mix(v ? 1 : 2); }

  /// Closes both lanes over the word count, so prefixes of a stream
  /// never share a key with the stream itself.
  [[nodiscard]] CacheKey key() const noexcept {
    return {splitmix(a_ ^ (words_ * 0xa0761d6478bd642fULL)),
            splitmix(b_ ^ words_ ^ 0xe7037ed1a0b428dbULL)};
  }

 private:
  std::uint64_t a_ = 0x6a09e667f3bcc909ULL;  // sqrt(2), sqrt(3) fractions
  std::uint64_t b_ = 0xbb67ae8584caa73bULL;
  std::uint64_t words_ = 0;
};

std::uint64_t load64(const char* p) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, p, sizeof word);
  return word;
}

/// Mixes `text` as its length and then zero-padded 8-byte words; the
/// length tells a short tail from trailing zero bytes.
void mix_text(StructuralHasher& h, std::string_view text) {
  h.mix(text.size());
  for (std::size_t at = 0; at < text.size(); at += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, text.data() + at,
                std::min<std::size_t>(8, text.size() - at));
    h.mix(word);
  }
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
  for (std::uint32_t i = 0; i < network.num_pis(); ++i) {
    mix_text(h, network.pi_name(i));
  }
  for (std::uint32_t i = 0; i < network.num_pos(); ++i) {
    mix_text(h, network.po_name(i));
  }
}

/// Digest of every compilation-relevant Options field. Any field change
/// — including nested rewrite/compile/schedule/verify/trace fields —
/// changes the key (the options-sensitivity test in test_serve.cpp
/// walks this list; extend both together when Options grows).
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

/// The bytes of a BLIF file or a benchmark's name, told apart by `kind`.
void hash_content(StructuralHasher& h, CompileRequest::Kind kind,
                  std::string_view content) {
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
  h.mix(0x0c01);  // content fence
  h.mix(static_cast<std::uint64_t>(kind));
  h.mix(content.size());
  for (const auto lane : lanes) {
    h.mix(lane);
  }
  mix_text(h, std::string_view(p, static_cast<std::size_t>(end - p)));
}

}  // namespace

CacheKey structural_key(const mig::Mig& network, const Options& options) {
  StructuralHasher h;
  hash_mig(h, network);
  hash_options(h, options);
  return h.key();
}

CacheKey request_key(const CompileRequest& request,
                     std::string_view blif_bytes, const Options& options) {
  StructuralHasher h;
  switch (request.kind()) {
    case CompileRequest::Kind::blif:
      hash_content(h, request.kind(), blif_bytes);
      break;
    case CompileRequest::Kind::benchmark:
      hash_content(h, request.kind(), request.label());
      break;
    case CompileRequest::Kind::network:
      return structural_key(*request.network(), options);
  }
  hash_options(h, options);
  return h.key();
}

}  // namespace plim::serve
