#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "driver/options.hpp"
#include "driver/request.hpp"
#include "mig/mig.hpp"

namespace plim::serve {

/// 128-bit digest of what one compile request says, ⊕ its plim::Options
/// — the compiled-program cache key (see request_key). Two requests
/// with equal keys compile to byte-identical outcomes, port names
/// included, modulo wall-clock and the request's label, because the
/// whole pipeline is deterministic in the request's content and the
/// options.
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const CacheKey&,
                                   const CacheKey&) noexcept = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// The key of an in-memory network: node kinds and fanin signals in
/// index order, the PO signals, and the PI and PO names in order (the
/// compiled program carries them) ⊕ every compilation-relevant Options
/// field. The same circuit with its nodes in another order has another
/// key.
[[nodiscard]] CacheKey structural_key(const mig::Mig& network,
                                      const Options& options);

/// The cache key of `request`, the one place that decides what a
/// request is keyed by: a BLIF request by its file's `blif_bytes`, a
/// benchmark request by its name, and an in-memory request by
/// structural_key of its network, which must not be null. Any change to
/// a file's bytes, comments and whitespace included, changes the key.
/// The bytes go through xxHash64's lane round, four independent
/// multiply-rotate chains over 32-byte stripes, so the digest runs at
/// several bytes per cycle. Not cryptographic: a client that can write
/// the daemon's input files can already choose its answers.
[[nodiscard]] CacheKey request_key(const CompileRequest& request,
                                   std::string_view blif_bytes,
                                   const Options& options);

}  // namespace plim::serve
