// AVX2 8x8 DCT kernels, block writer and YCbCr -> RGB row kernel, all
// bit-identical to the scalar reference.
//
// The trick: vectorise across *output* lanes only. Each output coefficient
// is still a sum of 8 products accumulated in exactly the scalar loop's
// order — the four doubles in a ymm register are four independent scalar
// accumulations running side by side. With plain vmulpd/vaddpd (no FMA,
// which would change rounding) every lane performs the same IEEE ops the
// scalar kernel does, so the results match bit for bit. The block writer
// and colour conversion are per-sample expressions, evaluated lane by lane
// with the scalar code's operations.

#include "codec/dct.h"

#if defined(__x86_64__)

#include <immintrin.h>

namespace classminer::codec::internal {
namespace {

// Loads one row of 8 doubles as two ymm registers.
struct Row8 {
  __m256d lo;
  __m256d hi;
};

__attribute__((target("avx2"))) inline Row8 LoadRow(const double* p) {
  return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}

__attribute__((target("avx2"))) inline void StoreRow(double* p, Row8 r) {
  _mm256_storeu_pd(p, r.lo);
  _mm256_storeu_pd(p + 4, r.hi);
}

__attribute__((target("avx2"))) inline Row8 MulAdd(Row8 acc, Row8 a,
                                                   __m256d b) {
  // Explicit mul+add (not FMA) to match the scalar kernel's rounding.
  acc.lo = _mm256_add_pd(acc.lo, _mm256_mul_pd(a.lo, b));
  acc.hi = _mm256_add_pd(acc.hi, _mm256_mul_pd(a.hi, b));
  return acc;
}

}  // namespace

bool DctAccelAvailable() { return true; }

__attribute__((target("avx2"))) Block ForwardDctAccel(const Block& spatial) {
  const DctTables& t = Tables();
  // Pass 1 (rows): tmp[y][u] = sum_x spatial[y][x] * basis[u][x]
  //                          = sum_x spatial[y][x] * basis_t[x][u].
  // For fixed y the 8 u-lanes accumulate over x = 0..7, scalar order.
  alignas(32) double tmp[kBlockPixels];
  for (int y = 0; y < kBlockSize; ++y) {
    Row8 acc{_mm256_setzero_pd(), _mm256_setzero_pd()};
    for (int x = 0; x < kBlockSize; ++x) {
      const __m256d s =
          _mm256_set1_pd(spatial[static_cast<size_t>(y) * kBlockSize + x]);
      acc = MulAdd(acc, LoadRow(t.basis_t[x]), s);
    }
    StoreRow(&tmp[static_cast<size_t>(y) * kBlockSize], acc);
  }
  // Pass 2 (columns): out[v][u] = sum_y tmp[y][u] * basis[v][y].
  // For fixed v the 8 u-lanes accumulate over y = 0..7, scalar order.
  Block out{};
  for (int v = 0; v < kBlockSize; ++v) {
    Row8 acc{_mm256_setzero_pd(), _mm256_setzero_pd()};
    for (int y = 0; y < kBlockSize; ++y) {
      const __m256d b = _mm256_set1_pd(t.basis[v][y]);
      acc = MulAdd(acc, LoadRow(&tmp[static_cast<size_t>(y) * kBlockSize]), b);
    }
    StoreRow(&out[static_cast<size_t>(v) * kBlockSize], acc);
  }
  return out;
}

__attribute__((target("avx2"))) Block InverseDctAccel(const Block& freq) {
  const DctTables& t = Tables();
  // Sparse like the scalar kernel, and exact for the same reason (see
  // InverseDct): a skipped term is a signed-zero product.
  // Pass 1: tmp[y][u] = sum_v freq[v][u] * basis[v][y] over the nonzero rows
  // v. For fixed y the 8 u-lanes accumulate in ascending v, scalar order.
  Row8 rows[kBlockSize];
  int nonzero_rows[kBlockSize];
  int nonzero = 0;
  const __m256d zero = _mm256_setzero_pd();
  for (int v = 0; v < kBlockSize; ++v) {
    const Row8 row = LoadRow(&freq[static_cast<size_t>(v) * kBlockSize]);
    const __m256d ne = _mm256_or_pd(_mm256_cmp_pd(row.lo, zero, _CMP_NEQ_UQ),
                                    _mm256_cmp_pd(row.hi, zero, _CMP_NEQ_UQ));
    if (_mm256_movemask_pd(ne) == 0) continue;
    rows[nonzero] = row;
    nonzero_rows[nonzero++] = v;
  }
  alignas(32) double tmp[kBlockPixels];
  for (int y = 0; y < kBlockSize; ++y) {
    Row8 acc{zero, zero};
    for (int i = 0; i < nonzero; ++i) {
      acc = MulAdd(acc, rows[i], _mm256_set1_pd(t.basis[nonzero_rows[i]][y]));
    }
    StoreRow(&tmp[static_cast<size_t>(y) * kBlockSize], acc);
  }
  // Pass 2: out[y][x] = sum_u tmp[y][u] * basis[u][x] over the nonzero
  // tmp[y][u]. For fixed y the 8 x-lanes accumulate in ascending u.
  Block out;
  for (int y = 0; y < kBlockSize; ++y) {
    Row8 acc{zero, zero};
    for (int u = 0; u < kBlockSize; ++u) {
      const double s = tmp[static_cast<size_t>(y) * kBlockSize + u];
      if (s == 0.0) continue;
      acc = MulAdd(acc, LoadRow(t.basis[u]), _mm256_set1_pd(s));
    }
    StoreRow(&out[static_cast<size_t>(y) * kBlockSize], acc);
  }
  return out;
}

namespace {

// RoundToSample on four lanes: clamp to [0, 255], truncate (floor, as v is
// not negative), and add one where the exact remainder is at least 0.5.
__attribute__((target("avx2"))) inline __m128i RoundToSample4(__m256d v) {
  v = _mm256_min_pd(_mm256_max_pd(v, _mm256_setzero_pd()),
                    _mm256_set1_pd(255.0));
  const __m256d t = _mm256_floor_pd(v);
  const __m256d up = _mm256_and_pd(
      _mm256_cmp_pd(_mm256_sub_pd(v, t), _mm256_set1_pd(0.5), _CMP_GE_OQ),
      _mm256_set1_pd(1.0));
  return _mm256_cvttpd_epi32(_mm256_add_pd(t, up));
}

// Eight lanes of one channel, as bytes in the low half of the result.
__attribute__((target("avx2"))) inline __m128i Channel8(__m256d lo,
                                                        __m256d hi) {
  const __m128i words = _mm_packs_epi32(RoundToSample4(lo), RoundToSample4(hi));
  return _mm_packus_epi16(words, words);
}

}  // namespace

__attribute__((target("avx2"))) void YccRowToRgbAccel(const int16_t* y,
                                                      const int16_t* cb,
                                                      const int16_t* cr,
                                                      int count,
                                                      media::Rgb* out) {
  static_assert(sizeof(media::Rgb) == 3);
  const __m256d c128 = _mm256_set1_pd(128.0);
  const __m256d kr = _mm256_set1_pd(1.402);
  const __m256d kgb = _mm256_set1_pd(0.344136);
  const __m256d kgr = _mm256_set1_pd(0.714136);
  const __m256d kb = _mm256_set1_pd(1.772);
  // Byte k of 24 interleaved output bytes is channel k % 3 of pixel k / 3:
  // R from byte p and G from byte 8 + p of `rg`, B from byte p of `b`.
  const __m128i rg_lo = _mm_setr_epi8(0, 8, -1, 1, 9, -1, 2, 10, -1, 3, 11,
                                      -1, 4, 12, -1, 5);
  const __m128i b_lo = _mm_setr_epi8(-1, -1, 0, -1, -1, 1, -1, -1, 2, -1, -1,
                                     3, -1, -1, 4, -1);
  const __m128i rg_hi = _mm_setr_epi8(13, -1, 6, 14, -1, 7, 15, -1, -1, -1,
                                      -1, -1, -1, -1, -1, -1);
  const __m128i b_hi = _mm_setr_epi8(-1, 5, -1, -1, 6, -1, -1, 7, -1, -1, -1,
                                     -1, -1, -1, -1, -1);
  for (int x = 0; x < count; x += 8) {
    const __m256i yi = _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(y + x)));
    const __m256d y_lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(yi));
    const __m256d y_hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(yi, 1));
    // Four chroma samples, each doubled for its pixel pair.
    const __m128i cbi = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cb + x / 2)));
    const __m128i cri = _mm_cvtepi16_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(cr + x / 2)));
    const __m256d cb_lo =
        _mm256_sub_pd(_mm256_cvtepi32_pd(_mm_unpacklo_epi32(cbi, cbi)), c128);
    const __m256d cb_hi =
        _mm256_sub_pd(_mm256_cvtepi32_pd(_mm_unpackhi_epi32(cbi, cbi)), c128);
    const __m256d cr_lo =
        _mm256_sub_pd(_mm256_cvtepi32_pd(_mm_unpacklo_epi32(cri, cri)), c128);
    const __m256d cr_hi =
        _mm256_sub_pd(_mm256_cvtepi32_pd(_mm_unpackhi_epi32(cri, cri)), c128);
    // The scalar expressions, operation for operation (no FMA):
    // yy + 1.402 * cr, (yy - 0.344136 * cb) - 0.714136 * cr, yy + 1.772 * cb.
    const __m128i r = Channel8(_mm256_add_pd(y_lo, _mm256_mul_pd(kr, cr_lo)),
                               _mm256_add_pd(y_hi, _mm256_mul_pd(kr, cr_hi)));
    const __m128i g = Channel8(
        _mm256_sub_pd(_mm256_sub_pd(y_lo, _mm256_mul_pd(kgb, cb_lo)),
                      _mm256_mul_pd(kgr, cr_lo)),
        _mm256_sub_pd(_mm256_sub_pd(y_hi, _mm256_mul_pd(kgb, cb_hi)),
                      _mm256_mul_pd(kgr, cr_hi)));
    const __m128i b = Channel8(_mm256_add_pd(y_lo, _mm256_mul_pd(kb, cb_lo)),
                               _mm256_add_pd(y_hi, _mm256_mul_pd(kb, cb_hi)));
    const __m128i rg = _mm_unpacklo_epi64(r, g);
    uint8_t* dst = reinterpret_cast<uint8_t*>(out + x);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst),
                     _mm_or_si128(_mm_shuffle_epi8(rg, rg_lo),
                                  _mm_shuffle_epi8(b, b_lo)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + 16),
                     _mm_or_si128(_mm_shuffle_epi8(rg, rg_hi),
                                  _mm_shuffle_epi8(b, b_hi)));
  }
}

__attribute__((target("avx2"))) void PutBlockAccel(const Block& block,
                                                   const int16_t* pred,
                                                   size_t pred_stride,
                                                   double offset, int16_t* dst,
                                                   size_t dst_stride) {
  const __m256d base = _mm256_set1_pd(offset);
  for (int y = 0; y < kBlockSize; ++y) {
    __m256d lo = _mm256_loadu_pd(&block[static_cast<size_t>(y) * kBlockSize]);
    __m256d hi =
        _mm256_loadu_pd(&block[static_cast<size_t>(y) * kBlockSize + 4]);
    if (pred != nullptr) {
      const __m256i p = _mm256_cvtepi16_epi32(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(pred + y * pred_stride)));
      // pred + residual, as the scalar loop adds them.
      lo = _mm256_add_pd(_mm256_cvtepi32_pd(_mm256_castsi256_si128(p)), lo);
      hi = _mm256_add_pd(_mm256_cvtepi32_pd(_mm256_extracti128_si256(p, 1)),
                         hi);
    } else {
      lo = _mm256_add_pd(lo, base);
      hi = _mm256_add_pd(hi, base);
    }
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + y * dst_stride),
                     _mm_packs_epi32(RoundToSample4(lo), RoundToSample4(hi)));
  }
}

}  // namespace classminer::codec::internal

#else  // !defined(__x86_64__)

namespace classminer::codec::internal {

// No vector double path off x86-64 (NEON f64 reassociation would not be
// worth a separate kernel here); the dispatcher keeps the scalar kernels.
bool DctAccelAvailable() { return false; }
Block ForwardDctAccel(const Block& spatial) { return ForwardDctScalar(spatial); }
Block InverseDctAccel(const Block& freq) { return InverseDctScalar(freq); }
void YccRowToRgbAccel(const int16_t*, const int16_t*, const int16_t*, int,
                      media::Rgb*) {}
void PutBlockAccel(const Block&, const int16_t*, size_t, double, int16_t*,
                   size_t) {}

}  // namespace classminer::codec::internal

#endif
