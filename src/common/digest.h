// FNV-1a 64-bit digests: cheap, dependency-free content hashing used to pin
// byte-identical artifacts (metric snapshots, trace files) across runs and
// thread counts, to derive Rng fork seeds from labels, and to hash log
// tokens into embedding features. Defined inline so the per-label callers
// compile to the bare loop.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace acme::common {

inline constexpr std::uint64_t kFnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnv1aPrime = 0x100000001b3ULL;

// Incremental digest for streamed content.
class Fnv1a {
 public:
  Fnv1a& update(std::string_view bytes) {
    std::uint64_t h = state_;
    for (char c : bytes) {
      h ^= static_cast<unsigned char>(c);
      h *= kFnv1aPrime;
    }
    state_ = h;
    return *this;
  }
  std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kFnv1aOffset;
};

// One-shot digest of a byte string.
inline std::uint64_t fnv1a(std::string_view bytes) {
  return Fnv1a().update(bytes).digest();
}

// Lower-case 16-char hex rendering, for stable golden strings in logs.
std::string fnv1a_hex(std::uint64_t digest);

}  // namespace acme::common
