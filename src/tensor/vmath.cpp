// The model path's transcendentals (see vmath.h), written once on the
// lane type V: a Pair (two doubles in one SIMD register, SSE2 on x86-64,
// NEON on arm64) or, in the avx2 variant, a Quad (four doubles). Lane-wise
// +, -, *, / and the integer bit operations are the scalar IEEE
// operations, so each lane computes exactly what a scalar loop would: the
// span calls of both variants, their tails and the scalar entry points
// all run the same lane code (tensor/kernels.h).
//
// The lane code takes its vector by reference and is always inlined into
// a variant's span loop, so a Quad never crosses a function boundary that
// is not compiled for AVX2. A constant c in vector context is c in every
// lane (V{} + c, or c as an operand next to a vector).
//
// The library is compiled with -ffp-contract=off (src/CMakeLists.txt): a
// fused multiply-add would round differently on hosts that have one.
// Every constant is a hex-float literal, so no libm call runs, not even
// at start-up.

#include "tensor/vmath.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "tensor/kernels.h"
#include "tensor/lanes.h"

namespace fed::vmath {
namespace {

using lanes::at;
using lanes::Bits;
using lanes::kWidth;
using lanes::Pair;
#ifdef FEDPROX_KERNELS_AVX2
using lanes::Quad;
#endif

constexpr std::uint64_t kSign = 0x8000000000000000ull;
constexpr std::uint64_t kOneBits = 0x3ff0000000000000ull;  // 1.0
constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ull;  // 2^52
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- exp --------------------------------------------------------------
//
// x = k ln2/128 + r with |r| <= ln2/256, so e^x = 2^(k>>7) 2^(j/128) e^r
// with j = k mod 128. 2^(j/128) is hi[j] (1 + tail[j]); e^r - 1 is a
// degree-5 Taylor polynomial (truncation < 2^-60). The result is
// hi + hi * (tail + p(r)), rounded once, then scaled by 2^(k>>7).
//
// The table: hi[j] is 2^(j/128) rounded to nearest and tail[j] is
// (2^(j/128) - hi[j]) / hi[j] rounded to nearest, both computed at 80
// digits (Python: decimal.Decimal(2).ln() * j / 128, then .exp()).
// {hi[j], tail[j]} for j = 0..127.
alignas(64) constexpr double kExp2[256] = {
    0x1.0000000000000p+0, 0x0.0p+0,
    0x1.0163da9fb3335p+0, 0x1.b3b4f1a88bf6ep-54,
    0x1.02c9a3e778061p+0, -0x1.160139cd8dc5dp-56,
    0x1.04315e86e7f85p+0, -0x1.05e7a108766d1p-54,
    0x1.059b0d3158574p+0, 0x1.cd2523567f613p-55,
    0x1.0706b29ddf6dep+0, -0x1.bce8023f98efap-55,
    0x1.0874518759bc8p+0, 0x1.0f74e61e6c861p-57,
    0x1.09e3ecac6f383p+0, 0x1.0a3e45b33d399p-54,
    0x1.0b5586cf9890fp+0, 0x1.79aa65d837b6dp-54,
    0x1.0cc922b7247f7p+0, 0x1.eb51a92fdeffcp-55,
    0x1.0e3ec32d3d1a2p+0, 0x1.ebe3d702f9cd1p-60,
    0x1.0fb66affed31bp+0, -0x1.a033489906e0bp-57,
    0x1.11301d0125b51p+0, -0x1.556522a2fbd0ep-54,
    0x1.12abdc06c31ccp+0, -0x1.080ef8c4eea55p-58,
    0x1.1429aaea92de0p+0, -0x1.1c923b9d5f416p-54,
    0x1.15a98c8a58e51p+0, 0x1.0d3e3e95c55afp-55,
    0x1.172b83c7d517bp+0, -0x1.01b15eaa59348p-55,
    0x1.18af9388c8deap+0, -0x1.f1ff055de323dp-55,
    0x1.1a35beb6fcb75p+0, 0x1.b898c3f1353bfp-55,
    0x1.1bbe084045cd4p+0, -0x1.6d99c7611eb26p-54,
    0x1.1d4873168b9aap+0, 0x1.aecf73e3a2f60p-54,
    0x1.1ed5022fcd91dp+0, -0x1.fe782cb86389dp-55,
    0x1.2063b88628cd6p+0, 0x1.a6f4144a6c38dp-55,
    0x1.21f49917ddc96p+0, 0x1.07a05b0e4047dp-55,
    0x1.2387a6e756238p+0, 0x1.68efde3a8a894p-54,
    0x1.251ce4fb2a63fp+0, 0x1.75e18f274487dp-55,
    0x1.26b4565e27cddp+0, 0x1.0472b981fe7f2p-55,
    0x1.284dfe1f56381p+0, -0x1.6b87b3f71085ep-54,
    0x1.29e9df51fdee1p+0, 0x1.2f7e16d09ab31p-55,
    0x1.2b87fd0dad990p+0, -0x1.d219b1a6fbffap-60,
    0x1.2d285a6e4030bp+0, 0x1.b3782720c0ab4p-55,
    0x1.2ecafa93e2f56p+0, 0x1.e149289cecb8fp-57,
    0x1.306fe0a31b715p+0, 0x1.34d754db0abb6p-55,
    0x1.32170fc4cd831p+0, 0x1.64201e2ac744cp-55,
    0x1.33c08b26416ffp+0, 0x1.fdd395dd3f84ap-55,
    0x1.356c55f929ff1p+0, -0x1.6a3803b8e5b04p-55,
    0x1.371a7373aa9cbp+0, -0x1.24aedcc4b5068p-54,
    0x1.38cae6d05d866p+0, -0x1.907f81b512d8ep-54,
    0x1.3a7db34e59ff7p+0, -0x1.1d1e83e9436d2p-56,
    0x1.3c32dc313a8e5p+0, -0x1.91919b3ce1b15p-54,
    0x1.3dea64c123422p+0, 0x1.59f48a72a4c6dp-55,
    0x1.3fa4504ac801cp+0, -0x1.312607a28698ap-54,
    0x1.4160a21f72e2ap+0, -0x1.8a78f4817895bp-58,
    0x1.431f5d950a897p+0, -0x1.c2c9b67499a1bp-56,
    0x1.44e086061892dp+0, 0x1.363ed60c2ac11p-59,
    0x1.46a41ed1d0057p+0, 0x1.666093b0664efp-54,
    0x1.486a2b5c13cd0p+0, 0x1.ecce1daa10379p-57,
    0x1.4a32af0d7d3dep+0, 0x1.3ff8e3f0f1230p-54,
    0x1.4bfdad5362a27p+0, 0x1.690cebb7aafb0p-56,
    0x1.4dcb299fddd0dp+0, 0x1.31dbdeb54e077p-54,
    0x1.4f9b2769d2ca7p+0, -0x1.f94340071a38ep-55,
    0x1.516daa2cf6642p+0, -0x1.7deccdc93a349p-55,
    0x1.5342b569d4f82p+0, -0x1.8dec6bd0f385fp-56,
    0x1.551a4ca5d920fp+0, -0x1.61246ec7b5cf6p-55,
    0x1.56f4736b527dap+0, 0x1.3350518fdd78ep-54,
    0x1.58d12d497c7fdp+0, 0x1.b98b72f8a9b05p-56,
    0x1.5ab07dd485429p+0, 0x1.063e1e21c5409p-54,
    0x1.5c9268a5946b7p+0, 0x1.4c7855019c6eap-60,
    0x1.5e76f15ad2148p+0, 0x1.432e62b64c035p-54,
    0x1.605e1b976dc09p+0, -0x1.ce44a6199769fp-55,
    0x1.6247eb03a5585p+0, -0x1.c33c53bef4da8p-55,
    0x1.6434634ccc320p+0, -0x1.45378892be9aep-55,
    0x1.6623882552225p+0, -0x1.3cedd78565858p-54,
    0x1.68155d44ca973p+0, 0x1.710aa807e1964p-58,
    0x1.6a09e667f3bcdp+0, -0x1.3b3efbf5e2228p-54,
    0x1.6c012750bdabfp+0, -0x1.a12ad8734b982p-57,
    0x1.6dfb23c651a2fp+0, -0x1.367efb86da9eep-57,
    0x1.6ff7df9519484p+0, -0x1.0dc3d54e08851p-55,
    0x1.71f75e8ec5f74p+0, -0x1.81f647e5a3ecfp-56,
    0x1.73f9a48a58174p+0, -0x1.6ee4ac08b7db0p-55,
    0x1.75feb564267c9p+0, -0x1.619321e55e68ap-55,
    0x1.780694fde5d3fp+0, 0x1.09ccb5e09d4d3p-54,
    0x1.7a11473eb0187p+0, -0x1.b32dcb94da51dp-56,
    0x1.7c1ed0130c132p+0, 0x1.4ecfd5467c06bp-54,
    0x1.7e2f336cf4e62p+0, 0x1.5ebe1abd66c55p-57,
    0x1.80427543e1a12p+0, -0x1.8a1c52fb3cf42p-55,
    0x1.82589994cce13p+0, -0x1.369b6f13b3734p-54,
    0x1.8471a4623c7adp+0, -0x1.05e843a19ff1ep-55,
    0x1.868d99b4492edp+0, -0x1.4d450d872576ep-54,
    0x1.88ac7d98a6699p+0, 0x1.0ad675b0e8a00p-54,
    0x1.8ace5422aa0dbp+0, 0x1.db72fc1f0eab4p-55,
    0x1.8cf3216b5448cp+0, -0x1.5b6609cc5e7ffp-57,
    0x1.8f1ae99157736p+0, 0x1.bf68359f35f44p-56,
    0x1.9145b0b91ffc6p+0, -0x1.3091fa71e3d83p-54,
    0x1.93737b0cdc5e5p+0, -0x1.da9b88b6c1e29p-58,
    0x1.95a44cbc8520fp+0, -0x1.c23f97c90b959p-57,
    0x1.97d829fde4e50p+0, -0x1.2434322f4f9aap-54,
    0x1.9a0f170ca07bap+0, -0x1.5ca6cd7668e4bp-55,
    0x1.9c49182a3f090p+0, 0x1.1affc2b91ce27p-56,
    0x1.9e86319e32323p+0, 0x1.dd235e10a73bbp-57,
    0x1.a0c667b5de565p+0, -0x1.7c50422622263p-55,
    0x1.a309bec4a2d33p+0, 0x1.b1c86e3e231d5p-55,
    0x1.a5503b23e255dp+0, -0x1.1bbd1d3bcbb15p-54,
    0x1.a799e1330b358p+0, 0x1.0cc319cee31d2p-54,
    0x1.a9e6b5579fdbfp+0, 0x1.469846e735ab3p-55,
    0x1.ac36bbfd3f37ap+0, -0x1.2dfcd978e9db4p-55,
    0x1.ae89f995ad3adp+0, 0x1.c1a7792cb3387p-55,
    0x1.b0e07298db666p+0, -0x1.07b8f4ad1d9fap-54,
    0x1.b33a2b84f15fbp+0, -0x1.5c3d956dcaebap-58,
    0x1.b59728de5593ap+0, -0x1.0a40e3da6f640p-54,
    0x1.b7f76f2fb5e47p+0, -0x1.8d6f438ad9334p-57,
    0x1.ba5b030a1064ap+0, -0x1.1eee26b588a35p-54,
    0x1.bcc1e904bc1d2p+0, 0x1.4ffd70a5fddcdp-56,
    0x1.bf2c25bd71e09p+0, -0x1.1bdfbfa9298acp-54,
    0x1.c199bdd85529cp+0, 0x1.36eae30af0cb3p-56,
    0x1.c40ab5fffd07ap+0, 0x1.ee3325c9ffd94p-55,
    0x1.c67f12e57d14bp+0, 0x1.4e08fd10959acp-55,
    0x1.c8f6d9406e7b5p+0, 0x1.3cdaf384e1a67p-57,
    0x1.cb720dcef9069p+0, 0x1.76b2c6c921968p-57,
    0x1.cdf0b555dc3fap+0, -0x1.08a1883ccb5d2p-55,
    0x1.d072d4a07897cp+0, -0x1.fad5d3ffffa6fp-55,
    0x1.d2f87080d89f2p+0, -0x1.00dae3875a949p-54,
    0x1.d5818dcfba487p+0, 0x1.4a385a63d07a7p-56,
    0x1.d80e316c98398p+0, -0x1.2919e2040220fp-55,
    0x1.da9e603db3285p+0, 0x1.e5a50d5c192acp-55,
    0x1.dd321f301b460p+0, 0x1.43a59ac016b4bp-55,
    0x1.dfc97337b9b5fp+0, -0x1.2d52107b43e1fp-55,
    0x1.e264614f5a129p+0, -0x1.92ab93b470dc9p-55,
    0x1.e502ee78b3ff6p+0, 0x1.4b604603a88d3p-56,
    0x1.e7a51fbc74c83p+0, 0x1.3c5ec519d7271p-55,
    0x1.ea4afa2a490dap+0, -0x1.ff7128fd391f0p-55,
    0x1.ecf482d8e67f1p+0, -0x1.dae98e223747dp-55,
    0x1.efa1bee615a27p+0, 0x1.ec3bc41aa2008p-55,
    0x1.f252b376bba97p+0, 0x1.42b94c3a9eb32p-55,
    0x1.f50765b6e4540p+0, 0x1.a64a931d185eep-55,
    0x1.f7bfdad9cbe14p+0, -0x1.e37bae43be3edp-55,
    0x1.fa7c1819e90d8p+0, 0x1.7893b4d91cd9dp-56,
    0x1.fd3c22b8f71f1p+0, 0x1.305c14160cc89p-58,
};

constexpr double kExpMax = 0x1.63p+9;   // 710: e^x is +inf above ~709.78
constexpr double kExpMin = -0x1.75p+9;  // -746: e^x rounds to 0 below ~-745.13
constexpr double kInvLn2N = 0x1.71547652b82fep+7;  // 128 / ln 2
// Adding 1.5 * 2^52 rounds to an integer, held in the low mantissa bits.
constexpr double kShift = 0x1.8p+52;
// ln2/128 = kLn2HiN + kLn2LoN; kLn2HiN has 32 significant bits, so
// k * kLn2HiN is exact for every |k| < 2^20 the clamps allow.
constexpr double kLn2HiN = 0x1.62e42fee00000p-8;
constexpr double kLn2LoN = 0x1.a39ef35793c76p-40;
constexpr double kExpC2 = 0x1.0000000000000p-1;  // 1/2
constexpr double kExpC3 = 0x1.5555555555555p-3;  // 1/6
constexpr double kExpC4 = 0x1.5555555555555p-5;  // 1/24
constexpr double kExpC5 = 0x1.1111111111111p-7;  // 1/120

// x = e^x, lane-wise. kNonPositive: the caller guarantees x <= 0 or NaN
// (tanh and sigmoid), which drops the upper clamp and fixes b below at
// -64. The result is the same: both scalings are exact wherever e^x is a
// normal number.
template <bool kNonPositive = false, class V>
[[gnu::always_inline]] inline void exp_lanes(V& x) {
  using B = Bits<V>;
  // The clamps keep k in the scale's range; NaN compares false and
  // flows through to the result.
  if constexpr (!kNonPositive) x = kExpMax < x ? V{} + kExpMax : x;
  x = x < kExpMin ? V{} + kExpMin : x;
  const V shifted = x * kInvLn2N + kShift;
  const V kd = shifted - kShift;
  const V r = (x - kd * kLn2HiN) - kd * kLn2LoN;
  // k in two's complement in the low bits of `shifted`. The table index
  // j goes through memory: taking lane 1 of a Pair out of a register,
  // GCC emits a movhlps that also waits on the register's old contents,
  // which chained each pair of elements to the one before.
  const B k = __builtin_bit_cast(B, shifted);
  double lane[kWidth<V>];
  *at<V>(lane) = shifted;
  V hi{}, tail{};
  for (std::size_t l = 0; l < kWidth<V>; ++l) {
    const std::uint64_t j = __builtin_bit_cast(std::uint64_t, lane[l]) & 127;
    hi[l] = kExp2[2 * j];
    tail[l] = kExp2[2 * j + 1];
  }
  const V r2 = r * r;
  const V p = tail + r + r2 * (kExpC2 + r * kExpC3) +
              r2 * r2 * (kExpC4 + r * kExpC5);
  const V y = hi + hi * p;
  // 2^(k>>7) = 2^(k>>7 - b) * 2^b with b = -64 for x < 0, else +64, so
  // both factors are normal numbers even at the clamps: the first
  // product is exact, and the second rounds once, into the subnormals or
  // to +inf when the result lies there.
  // (k>>7) << 52, wrapped to 64 bits like any two's complement number.
  const B scale = (k & ~std::uint64_t{127}) << 45;
  const B minus64 = B{} + (std::uint64_t{0} - (64ull << 52));
  B b = minus64;
  if constexpr (!kNonPositive) {
    const B negative = __builtin_bit_cast(B, x < 0.0);
    b = (negative & minus64) | (~negative & (64ull << 52));
  }
  const V s1 = __builtin_bit_cast(V, kOneBits + scale - b);
  const V s2 = __builtin_bit_cast(V, kOneBits + b);
  x = (y * s1) * s2;
}

// ---- log --------------------------------------------------------------
//
// fdlibm's __ieee754_log: x = 2^k (1 + f) with 1 + f in [sqrt(2)/2,
// sqrt(2)), s = f / (2 + f), and log(1 + f) = 2s + s R(s^2) with fdlibm's
// Lg1..Lg7 minimax polynomial, in whichever of fdlibm's two rearrangements
// it picks for that f.
constexpr double kLn2Hi = 0x1.62e42fee00000p-1;  // k * kLn2Hi exact, |k| < 2000
constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
constexpr double kLg1 = 0x1.5555555555593p-1;
constexpr double kLg2 = 0x1.999999997fa04p-2;
constexpr double kLg3 = 0x1.2492494229359p-2;
constexpr double kLg4 = 0x1.c71c51d8e78afp-3;
constexpr double kLg5 = 0x1.7466496cb03dep-3;
constexpr double kLg6 = 0x1.39a09d078c69fp-3;
constexpr double kLg7 = 0x1.2f112df3e5244p-3;
constexpr std::uint64_t kSqrtHalfBits = 0x3fe6a09e667f3bcdull;  // sqrt(2)/2

template <class V>
[[gnu::always_inline]] inline void log_lanes(V& x) {
  using B = Bits<V>;
  // Subnormals are scaled into the normal range first (x 2^54, k - 54).
  const auto subnormal = x < 0x1p-1022;
  const V xs = subnormal ? x * 0x1p54 : x;
  const B ix = __builtin_bit_cast(B, xs);
  // The top 12 bits of ix - bits(sqrt(2)/2) are k, two's complement;
  // removing them from ix leaves 1 + f.
  const B top = (ix - kSqrtHalfBits) & 0xfff0000000000000ull;
  const V m = __builtin_bit_cast(V, ix - top);
  // k as a double, through the mantissa of 2^52: u in [0, 4096).
  const V u = __builtin_bit_cast(V, kTwo52Bits + (top >> 52)) - 0x1p52;
  const V k = u - (u >= 2048.0 ? V{} + 4096.0 : V{}) -
              (subnormal ? V{} + 54.0 : V{});

  const V f = m - 1.0;
  const V s = f / (2.0 + f);
  const V z = s * s;
  const V w = z * z;
  const V t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const V t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const V r = t2 + t1;
  const V hfsq = 0.5 * f * f;
  // fdlibm uses the hfsq form for 1 + f in [1.38, 1.42] before
  // normalization, which is 1 + f > 1.38 or 1 + f < 0.71 after it.
  const auto far = (m > 0x1.6147ap+0) | (m < 0x1.6b851p-1);
  const V k_lo = k * kLn2Lo;
  const V near_form = (s * (f - r) - k_lo) - f;
  const V far_form = (hfsq - (s * (hfsq + r) + k_lo)) - f;
  V y = k * kLn2Hi - (far ? far_form : near_form);

  y = x == kInf ? V{} + kInf : y;
  y = x < 0.0 ? V{} + kNaN : y;
  y = x == 0.0 ? V{} - kInf : y;
  x = x != x ? x : y;
}

// ---- tanh and sigmoid -------------------------------------------------
//
// tanh: on a = |x|, (1 - e) / (1 + e) with e = e^(-2a) for a >= 0.625;
// below it Cephes' rational a + a z P(z) / Q(z), z = a^2 (relative error
// below 2.4e-16 there). One division serves both. The sign of x is put
// back last, so tanh is odd bit for bit.
constexpr double kTanhP0 = -0x1.edc5baafd6f4bp-1;
constexpr double kTanhP1 = -0x1.8d26a0e26682dp+6;
constexpr double kTanhP2 = -0x1.93ac030580563p+10;
constexpr double kTanhQ0 = 0x1.c33f28a581b86p+6;
constexpr double kTanhQ1 = 0x1.176fa0e5535fap+11;
constexpr double kTanhQ2 = 0x1.2ec102442040cp+12;

template <class V>
[[gnu::always_inline]] inline void tanh_lanes(V& x) {
  using B = Bits<V>;
  const B sign = __builtin_bit_cast(B, x) & kSign;
  const V a = __builtin_bit_cast(V, __builtin_bit_cast(B, x) & ~kSign);
  V e = -2.0 * a;
  exp_lanes<true>(e);
  const V z = a * a;
  const V p = (kTanhP0 * z + kTanhP1) * z + kTanhP2;
  const V q = ((z + kTanhQ0) * z + kTanhQ1) * z + kTanhQ2;
  const auto small = a < 0x1.4p-1;  // 0.625
  const V ratio = (small ? p : 1.0 - e) / (small ? q : 1.0 + e);
  const V t = small ? a + (a * z) * ratio : ratio;
  x = __builtin_bit_cast(V, __builtin_bit_cast(B, t) | sign);
}

// sigmoid: with e = e^(-|x|), 1 / (1 + e) for x >= 0 and e / (1 + e)
// for x < 0, so neither side cancels or overflows.
template <class V>
[[gnu::always_inline]] inline void sigmoid_lanes(V& x) {
  using B = Bits<V>;
  V e = __builtin_bit_cast(V, __builtin_bit_cast(B, x) | kSign);  // -|x|
  exp_lanes<true>(e);
  x = (x < 0.0 ? e : V{} + 1.0) / (1.0 + e);
}

enum class Fn { kExp, kLog, kTanh, kSigmoid };

template <Fn kFn, class V>
[[gnu::always_inline]] inline void apply(V& x) {
  if constexpr (kFn == Fn::kExp) exp_lanes(x);
  if constexpr (kFn == Fn::kLog) log_lanes(x);
  if constexpr (kFn == Fn::kTanh) tanh_lanes(x);
  if constexpr (kFn == Fn::kSigmoid) sigmoid_lanes(x);
}

// The scalar entry points run the sse2 variant's Pair code on {x, x}.
template <Fn kFn>
double scalar(double x) {
  Pair v{x, x};
  apply<kFn>(v);
  return v[0];
}

// y = f(x) in lanes of V.
template <Fn kFn, class V>
[[gnu::always_inline]] inline void span_lanes(std::span<const double> x,
                                              std::span<double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  std::size_t i = 0;
  for (; i + kWidth<V> <= n; i += kWidth<V>) {
    V v = *at<V>(x.data() + i);
    apply<kFn>(v);
    *at<V>(y.data() + i) = v;
  }
  if (i == n) return;
  // The tail: one more V, its spare lanes copies of the last element.
  // Fixed-count loops, which the compiler unrolls into register moves.
  V v{};
  for (std::size_t j = 0; j < kWidth<V>; ++j) v[j] = x[std::min(i + j, n - 1)];
  apply<kFn>(v);
  for (std::size_t j = 0; j < kWidth<V>; ++j) {
    if (i + j < n) y[i + j] = v[j];
  }
}

}  // namespace

double exp(double x) { return scalar<Fn::kExp>(x); }
void exp(std::span<const double> x, std::span<double> y) {
#ifdef FEDPROX_KERNELS_AVX2
  if (kernels::kCpuHasAvx2) return kernels::avx2::exp(x, y);
#endif
  kernels::sse2::exp(x, y);
}

double log(double x) { return scalar<Fn::kLog>(x); }
void log(std::span<const double> x, std::span<double> y) {
#ifdef FEDPROX_KERNELS_AVX2
  if (kernels::kCpuHasAvx2) return kernels::avx2::log(x, y);
#endif
  kernels::sse2::log(x, y);
}

double tanh(double x) { return scalar<Fn::kTanh>(x); }
void tanh(std::span<const double> x, std::span<double> y) {
#ifdef FEDPROX_KERNELS_AVX2
  if (kernels::kCpuHasAvx2) return kernels::avx2::tanh(x, y);
#endif
  kernels::sse2::tanh(x, y);
}

double sigmoid(double x) { return scalar<Fn::kSigmoid>(x); }
void sigmoid(std::span<const double> x, std::span<double> y) {
#ifdef FEDPROX_KERNELS_AVX2
  if (kernels::kCpuHasAvx2) return kernels::avx2::sigmoid(x, y);
#endif
  kernels::sse2::sigmoid(x, y);
}

}  // namespace fed::vmath

namespace fed::kernels {

using vmath::Fn;
using vmath::span_lanes;

void sse2::exp(std::span<const double> x, std::span<double> y) {
  span_lanes<Fn::kExp, vmath::Pair>(x, y);
}
void sse2::log(std::span<const double> x, std::span<double> y) {
  span_lanes<Fn::kLog, vmath::Pair>(x, y);
}
void sse2::tanh(std::span<const double> x, std::span<double> y) {
  span_lanes<Fn::kTanh, vmath::Pair>(x, y);
}
void sse2::sigmoid(std::span<const double> x, std::span<double> y) {
  span_lanes<Fn::kSigmoid, vmath::Pair>(x, y);
}

#ifdef FEDPROX_KERNELS_AVX2
FEDPROX_AVX2 void avx2::exp(std::span<const double> x, std::span<double> y) {
  span_lanes<Fn::kExp, vmath::Quad>(x, y);
}
FEDPROX_AVX2 void avx2::log(std::span<const double> x, std::span<double> y) {
  span_lanes<Fn::kLog, vmath::Quad>(x, y);
}
FEDPROX_AVX2 void avx2::tanh(std::span<const double> x, std::span<double> y) {
  span_lanes<Fn::kTanh, vmath::Quad>(x, y);
}
FEDPROX_AVX2 void avx2::sigmoid(std::span<const double> x,
                                std::span<double> y) {
  span_lanes<Fn::kSigmoid, vmath::Quad>(x, y);
}
#endif

}  // namespace fed::kernels
