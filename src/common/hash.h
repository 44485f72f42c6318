// Hash-combining utilities shared by relations, adornments, and graph
// node signatures.

#ifndef MPQE_COMMON_HASH_H_
#define MPQE_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iterator>

namespace mpqe {

/// Mixes `value` into `seed` (boost::hash_combine-style, 64-bit constants).
inline void HashCombine(size_t& seed, size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Hashes a contiguous range of hashable elements into one value.
template <typename It>
size_t HashRange(It first, It last) {
  size_t seed = 0xcbf29ce484222325ULL;
  for (It it = first; it != last; ++it) {
    HashCombine(seed, std::hash<typename std::iterator_traits<It>::value_type>{}(*it));
  }
  return seed;
}

/// splitmix64 finalizer. Open-addressing tables mask hashes with a
/// power of two, so the low bits must depend on every input bit;
/// HashCombine alone leaves sequential integers nearly sequential
/// (libstdc++'s std::hash<int64_t> is the identity).
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace mpqe

#endif  // MPQE_COMMON_HASH_H_
