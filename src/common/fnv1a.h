// 64-bit FNV-1a, the one digest the repository's golden checks fold into:
// delivery traces, topologies, replicated state and compiled epochs. A
// digest starts at kFnvOffsetBasis; each fold returns it with more bytes
// folded in, so folds chain in the order the caller lists them.
#pragma once

#include <cstdint>
#include <string_view>

namespace decseq {

inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// Fold `bytes` into the digest `h`, first byte first.
[[nodiscard]] inline std::uint64_t fnv1a_bytes(std::uint64_t h,
                                               std::string_view bytes) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= kFnvPrime;
  }
  return h;
}

/// Fold the eight bytes of `word`, little end first, into the digest `h`
/// (the same on every host, whatever its byte order).
[[nodiscard]] inline std::uint64_t fnv1a_word(std::uint64_t h,
                                              std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (word >> (8 * byte)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace decseq
