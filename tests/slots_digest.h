// Text form and FNV-1a digest of a slot sequence, for golden tests that pin
// an allocation byte for byte.

#ifndef BCAST_TESTS_SLOTS_DIGEST_H_
#define BCAST_TESTS_SLOTS_DIGEST_H_

#include <cstdint>
#include <string>

#include "alloc/allocation.h"

namespace bcast {

// "0|1,4|2,3": slots separated by '|', the node ids of a slot by ','.
inline std::string SlotsText(const SlotSequence& slots) {
  std::string out;
  for (size_t s = 0; s < slots.size(); ++s) {
    if (s > 0) out += '|';
    for (size_t i = 0; i < slots[s].size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(slots[s][i]);
    }
  }
  return out;
}

inline uint64_t Fnv1a(const std::string& text) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace bcast

#endif  // BCAST_TESTS_SLOTS_DIGEST_H_
