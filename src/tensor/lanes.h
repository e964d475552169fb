// SIMD lane types of the model kernels (tensor/ops.cpp, tensor/vmath.cpp).
// Internal to tensor/; the variants that use them are in tensor/kernels.h.
//
// Lane code is written once, as templates on the lane type V, and always
// inlined into a variant's entry point, so it is compiled for that
// variant's target. Two rules keep a Quad inside AVX2-compiled code:
// - no function outside an avx2 entry point takes or returns a V by
//   value (that would be compiled, and its ABI fixed, without AVX);
// - lane code loads and stores through at<V>(), not memcpy. GCC turns a
//   memcpy into one vector move only where the function's own target has
//   the vector's width, and the templates' own target is the default one.

#pragma once

#include <cstddef>
#include <cstdint>

#include "tensor/kernels.h"

namespace fed::lanes {

// Two doubles in one SIMD register: SSE2 on x86-64, NEON on arm64.
typedef double Pair __attribute__((vector_size(16)));
#ifdef FEDPROX_KERNELS_AVX2
// Four doubles in one AVX2 register.
typedef double Quad __attribute__((vector_size(32)));
#endif

// Unaligned: a V at any double's address, which may alias doubles.
// Bits: the lanes of V as 64-bit unsigned integers.
template <class V>
struct Traits;
template <>
struct Traits<double> {
  using Unaligned = double;
};
template <>
struct Traits<Pair> {
  typedef double Unaligned
      __attribute__((vector_size(16), aligned(8), may_alias));
  typedef std::uint64_t Bits __attribute__((vector_size(16)));
};
#ifdef FEDPROX_KERNELS_AVX2
template <>
struct Traits<Quad> {
  typedef double Unaligned
      __attribute__((vector_size(32), aligned(8), may_alias));
  typedef std::uint64_t Bits __attribute__((vector_size(32)));
};
#endif

template <class V>
using Bits = typename Traits<V>::Bits;

// Doubles per V.
template <class V>
constexpr std::size_t kWidth = sizeof(V) / sizeof(double);

// The V whose lanes are p[0 .. kWidth<V>), to read or assign.
template <class V>
[[gnu::always_inline]] inline const typename Traits<V>::Unaligned* at(
    const double* p) {
  return reinterpret_cast<const typename Traits<V>::Unaligned*>(p);
}
template <class V>
[[gnu::always_inline]] inline typename Traits<V>::Unaligned* at(double* p) {
  return reinterpret_cast<typename Traits<V>::Unaligned*>(p);
}

}  // namespace fed::lanes
