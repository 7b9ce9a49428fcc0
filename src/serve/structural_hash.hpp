#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "driver/options.hpp"
#include "driver/request.hpp"
#include "mig/mig.hpp"

namespace plim::serve {

/// 128-bit structural digest of a (MIG, plim::Options) pair — the
/// compiled-program cache key. Two requests with equal keys compile to
/// byte-identical outcomes (modulo wall-clock), because the whole
/// pipeline is deterministic in exactly these two inputs; PI/PO *names*
/// and the request label are deliberately excluded, so the same circuit
/// arriving as a BLIF file and as an in-memory network still shares one
/// cache line.
struct StructuralKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const StructuralKey&,
                                   const StructuralKey&) noexcept = default;

  /// 32 hex digits (diagnostics, protocol echoes).
  [[nodiscard]] std::string to_hex() const;
};

struct StructuralKeyHash {
  std::size_t operator()(const StructuralKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Streaming two-lane mixer (splitmix64 finalizers over independent
/// states). Both lanes absorb every word with different evolution, so a
/// single-lane collision does not collide the key.
class StructuralHasher {
 public:
  void mix(std::uint64_t v) noexcept;
  void mix_bool(bool v) noexcept { mix(v ? 1 : 2); }

  [[nodiscard]] StructuralKey key() const noexcept;

 private:
  std::uint64_t a_ = 0x6a09e667f3bcc909ULL;  // sqrt(2), sqrt(3) fractions
  std::uint64_t b_ = 0xbb67ae8584caa73bULL;
  std::uint64_t words_ = 0;
};

/// Digest of the network alone: node kinds and fanin signals in index
/// order plus the PO signal list (names excluded — see StructuralKey).
void hash_mig(StructuralHasher& h, const mig::Mig& network);

/// Digest of every compilation-relevant Options field. Any field change
/// — including nested rewrite/compile/schedule/verify/trace fields —
/// changes the key (the options-sensitivity test in test_serve.cpp
/// walks this list; extend both together when Options grows).
void hash_options(StructuralHasher& h, const Options& options);

/// The cache key of one request: hash_mig ⊕ hash_options.
[[nodiscard]] StructuralKey structural_key(const mig::Mig& network,
                                           const Options& options);

/// A digest of what a request says rather than what it builds: a BLIF
/// file's bytes, or a benchmark's name. Equal content keys load equal
/// networks, so a cache can answer a request it has seen before without
/// parsing it; different bytes of one circuit have different content
/// keys but share a structural key.
using ContentKey = StructuralKey;

/// The content key of `content` (a BLIF request's bytes or a benchmark
/// request's name, told apart by `kind`) ⊕ hash_options. The bytes go
/// through xxHash64's lane round, four independent multiply-rotate
/// chains over 32-byte stripes, so the digest runs at several bytes per
/// cycle. Not cryptographic: a client that can write the daemon's input
/// files can already choose its answers.
[[nodiscard]] ContentKey content_key(CompileRequest::Kind kind,
                                     std::string_view content,
                                     const Options& options);

}  // namespace plim::serve
