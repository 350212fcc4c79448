#ifndef CLASSMINER_UTIL_LANES_H_
#define CLASSMINER_UTIL_LANES_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "util/cpu.h"

namespace classminer::util {

// Four doubles operated on lane by lane, for kernels that process four
// independent items at once (audio frames, FFT signals), one item per
// lane. A kernel is written once, as a generic lambda over a lane type V,
// and RunLanes instantiates it for the active dispatch level:
//
//   util::RunLanes([&]<typename V>() __attribute__((always_inline)) {
//     V acc = {};
//     for (...) { V x = {}; LoadLanes(x, p); acc += x * x; }
//     StoreLanes(out, acc);
//   });
//
// Both lane types compute `a * b - c / d` lane-wise with IEEE operations,
// rounding in every lane exactly where the same scalar expression rounds;
// a double operand is broadcast to all lanes. Nothing is reassociated and
// no FMA can form, because no dispatch level enables it.
inline constexpr size_t kLanes = 4;

// The AVX2 lane type: a GCC/Clang vector of four doubles, one ymm register.
using VectorLanes =
    double __attribute__((vector_size(kLanes * sizeof(double))));

// The baseline lane type: the same operators, spelled out per lane. A
// 32-byte vector type has no register below AVX, so the compiler would
// keep it on the stack; this struct stays in scalar or SSE2 registers.
struct ScalarLanes {
  double v[kLanes];
  double& operator[](size_t l) { return v[l]; }
  double operator[](size_t l) const { return v[l]; }
};

#define CM_SCALAR_LANES_OP(op)                                            \
  [[gnu::always_inline]] inline ScalarLanes operator op(                 \
      const ScalarLanes& a, const ScalarLanes& b) {                      \
    return {a.v[0] op b.v[0], a.v[1] op b.v[1], a.v[2] op b.v[2],        \
            a.v[3] op b.v[3]};                                           \
  }                                                                      \
  [[gnu::always_inline]] inline ScalarLanes operator op(                 \
      const ScalarLanes& a, double b) {                                  \
    return a op ScalarLanes{b, b, b, b};                                 \
  }                                                                      \
  [[gnu::always_inline]] inline ScalarLanes operator op(                 \
      double a, const ScalarLanes& b) {                                  \
    return ScalarLanes{a, a, a, a} op b;                                 \
  }
CM_SCALAR_LANES_OP(+)
CM_SCALAR_LANES_OP(-)
CM_SCALAR_LANES_OP(*)
CM_SCALAR_LANES_OP(/)
#undef CM_SCALAR_LANES_OP

[[gnu::always_inline]] inline ScalarLanes& operator+=(ScalarLanes& a,
                                                      const ScalarLanes& b) {
  return a = a + b;
}

// Loads and stores four consecutive doubles. Lanes go by reference, never
// by value, so no function signature carries a 32-byte vector. The
// ScalarLanes overloads copy element by element, which keeps the struct in
// registers where a memcpy would route it through the stack.
[[gnu::always_inline]] inline void LoadLanes(VectorLanes& v, const double* p) {
  std::memcpy(&v, p, sizeof v);
}
[[gnu::always_inline]] inline void StoreLanes(double* p, const VectorLanes& v) {
  std::memcpy(p, &v, sizeof v);
}
[[gnu::always_inline]] inline void LoadLanes(ScalarLanes& v, const double* p) {
  v = {p[0], p[1], p[2], p[3]};
}
[[gnu::always_inline]] inline void StoreLanes(double* p, const ScalarLanes& v) {
  p[0] = v.v[0];
  p[1] = v.v[1];
  p[2] = v.v[2];
  p[3] = v.v[3];
}

// Lane-wise operations the operators do not cover. Each writes `out`,
// which may alias an operand, and decides every lane as the scalar
// expression beside it does, at both dispatch levels:
//   MaxLanes(out, a, b)                  out = std::max(a, b)
//   AbsLanes(out, a)                     out = std::fabs(a)
//   SelectGreaterLanes(out, a, b, x, y)  out = a > b ? x : y
[[gnu::always_inline]] inline void MaxLanes(VectorLanes& out,
                                            const VectorLanes& a,
                                            const VectorLanes& b) {
  out = a < b ? b : a;
}
[[gnu::always_inline]] inline void AbsLanes(VectorLanes& out,
                                            const VectorLanes& a) {
  using Bits = int64_t __attribute__((vector_size(sizeof(VectorLanes))));
  out = (VectorLanes)((Bits)a & INT64_MAX);
}
[[gnu::always_inline]] inline void SelectGreaterLanes(
    VectorLanes& out, const VectorLanes& a, const VectorLanes& b,
    const VectorLanes& x, const VectorLanes& y) {
  out = a > b ? x : y;
}
[[gnu::always_inline]] inline void MaxLanes(ScalarLanes& out,
                                            const ScalarLanes& a,
                                            const ScalarLanes& b) {
  for (size_t l = 0; l < kLanes; ++l) out.v[l] = std::max(a.v[l], b.v[l]);
}
[[gnu::always_inline]] inline void AbsLanes(ScalarLanes& out,
                                            const ScalarLanes& a) {
  for (size_t l = 0; l < kLanes; ++l) out.v[l] = std::fabs(a.v[l]);
}
[[gnu::always_inline]] inline void SelectGreaterLanes(
    ScalarLanes& out, const ScalarLanes& a, const ScalarLanes& b,
    const ScalarLanes& x, const ScalarLanes& y) {
  for (size_t l = 0; l < kLanes; ++l) {
    out.v[l] = a.v[l] > b.v[l] ? x.v[l] : y.v[l];
  }
}

#if defined(__x86_64__)
namespace internal {
template <typename Body>
__attribute__((target("avx2"))) void RunLanesAvx2(const Body& body) {
  body.template operator()<VectorLanes>();
}
}  // namespace internal
#endif

// Runs `body`, a generic lambda over the lane type declared
// `__attribute__((always_inline))`. At the AVX2 level it is inlined into
// an AVX2 function with V = VectorLanes (ymm instructions); otherwise it
// runs with V = ScalarLanes. Every lane performs the same operations at
// both levels.
template <typename Body>
void RunLanes(const Body& body) {
#if defined(__x86_64__)
  if (ActiveDispatchLevel() >= DispatchLevel::kAvx2) {
    internal::RunLanesAvx2(body);
    return;
  }
#endif
  body.template operator()<ScalarLanes>();
}

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_LANES_H_
