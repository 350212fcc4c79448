#ifndef CLASSMINER_UTIL_CRC32_H_
#define CLASSMINER_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace classminer::util {

// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the per-record
// integrity checksum of the CMV container, the library's manifest and
// shard-log records, and the CMQ2/CMS2 wire frames. Chainable: pass the previous return value as `crc`
// to extend a checksum over several spans
// (Crc32(b, nb, Crc32(a, na)) == Crc32(a+b)).
//
// The implementation dispatches once per process (cached function pointer,
// revalidated only when a test pins the level via util::cpu): slice-by-8
// tables at kScalar, PCLMULQDQ 4-way folding at kSse42/kAvx2 on x86-64, and
// the ARMv8 CRC32 extension at kNeon. Every path returns bit-identical
// checksums; CLASSMINER_DISABLE_SIMD=1 pins the table path.
uint32_t Crc32(const uint8_t* data, size_t size, uint32_t crc = 0);
uint32_t Crc32(const std::vector<uint8_t>& bytes, uint32_t crc = 0);

namespace internal {

// Kernels over the raw (pre/post-conditioned) CRC state, exposed so tests
// can pin each one against the others regardless of the host's dispatch
// level. All take/return the *public* chained-crc value, not the inverted
// register.
uint32_t Crc32Reference(const uint8_t* data, size_t size, uint32_t crc);
uint32_t Crc32Slice8(const uint8_t* data, size_t size, uint32_t crc);
// Slice-by-8 over the raw inverted register (no pre/post conditioning);
// the accelerated paths use it for unaligned heads and short tails.
uint32_t Crc32Slice8State(uint32_t state, const uint8_t* data, size_t size);
// Hardware-accelerated path for this architecture (PCLMUL folding on
// x86-64, CRC32 instructions on ARMv8). Only callable when
// Crc32AccelAvailable() is true.
bool Crc32AccelAvailable();
uint32_t Crc32Accel(const uint8_t* data, size_t size, uint32_t crc);

}  // namespace internal

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_CRC32_H_
