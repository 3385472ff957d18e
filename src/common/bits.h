#ifndef PARDB_COMMON_BITS_H_
#define PARDB_COMMON_BITS_H_

#include <cstdint>

namespace pardb {

// Smallest power of two >= x (0 maps to 1). Saturates at 2^63 for inputs
// above it, so the result is always a power of two and `result - 1` is
// always a valid all-ones mask. Callers that need "period & (period - 1)"
// masking (the hub snapshot cadence in the sharded driver) round
// through this instead of assuming the configured value is a power of two.
constexpr std::uint64_t RoundUpPowerOfTwo(std::uint64_t x) {
  if (x <= 1) return 1;
  if (x > (1ULL << 63)) return 1ULL << 63;
  std::uint64_t p = x - 1;
  p |= p >> 1;
  p |= p >> 2;
  p |= p >> 4;
  p |= p >> 8;
  p |= p >> 16;
  p |= p >> 32;
  return p + 1;
}

}  // namespace pardb

#endif  // PARDB_COMMON_BITS_H_
