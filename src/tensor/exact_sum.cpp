#include "tensor/exact_sum.h"

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>

namespace fed {

namespace {

std::uint32_t load_digit(const std::uint8_t* digits, unsigned j) {
  std::uint32_t d;
  std::memcpy(&d, digits + 4 * j, sizeof(d));
  return d;
}

// The correctly rounded double of the canonical window (lo, n, digits):
// the n-digit two's-complement integer, top digit signed, times
// 2^(32 lo - kBias). `digits` holds n little-endian u32s.
//
// Only the top three digits matter for the mantissa: a canonical
// window's top digit carries at least one significant bit, so the three
// hold the 53 mantissa bits, the guard bit and more. Everything lower
// only feeds the sticky bit.
double window_value(unsigned lo, unsigned n, const std::uint8_t* digits) {
  using U128 = unsigned __int128;
  if (n == 0) return 0.0;
  const std::uint32_t top_digit = load_digit(digits, n - 1);
  const std::uint64_t d1 = n >= 2 ? load_digit(digits, n - 2) : 0;
  const std::uint64_t d2 = n >= 3 ? load_digit(digits, n - 3) : 0;
  bool sticky = false;
  for (unsigned j = 0; j + 3 < n; ++j) sticky |= load_digit(digits, j) != 0;
  // x: the top three digits as a two's-complement 96-bit integer.
  const auto x = static_cast<U128>(
                     static_cast<__int128>(static_cast<std::int32_t>(top_digit))
                     << 64) |
                 d1 << 32 | d2;
  const bool negative = (top_digit >> 31) != 0;
  // |sum| = |x + f| for the fraction 0 <= f < 1 below the three digits.
  // When negative and f > 0 that is (-x - 1) + (1 - f): the integer part
  // is ~x and the fraction stays nonzero, so sticky is unchanged.
  const U128 mag = negative ? (sticky ? ~x : -x) : x;
  const std::uint64_t sign = negative ? std::uint64_t{1} << 63 : 0;
  // Bit 0 of `mag` sits at absolute bit `base` (absolute bit 0 weighs
  // 2^-kBias; negative when the window has fewer than three digits).
  const int base = 32 * (static_cast<int>(lo) + static_cast<int>(n) - 3);
  const auto mag_hi = static_cast<std::uint64_t>(mag >> 64);
  const auto mag_lo = static_cast<std::uint64_t>(mag);
  const int width = mag_hi != 0 ? 128 - std::countl_zero(mag_hi)
                                : 64 - std::countl_zero(mag_lo);
  const int top = base + width - 1;  // highest set bit of |sum|
  if (top <= 52) {
    // |sum| < 2^53 units of 2^-kBias: the raw bits of that multiple of
    // the smallest subnormal are the integer itself (subnormal, or the
    // lowest binade of normals). No bit lies below absolute bit 0.
    const auto m = static_cast<std::uint64_t>(base >= 0 ? mag << base
                                                        : mag >> -base);
    return std::bit_cast<double>(m | sign);
  }
  // Keep the top 53 bits and round half to even on the guard bit and the
  // sticky OR of everything below it. `below` >= 11: three digits hold
  // at least 64 bits under the top one.
  const int below = width - 53;
  const auto mant = static_cast<std::uint64_t>(mag >> below);
  const bool guard = ((mag >> (below - 1)) & 1) != 0;
  sticky = sticky || (mag & ((U128{1} << (below - 1)) - 1)) != 0;
  const std::uint64_t round_up = guard && (sticky || (mant & 1)) ? 1 : 0;
  // |sum| ~ mant * 2^(top - 52 - kBias), mant in [2^52, 2^53): biased
  // exponent top - 51. A rounding carry out of the mantissa steps the
  // exponent field, and anything at or past exponent 0x7ff is infinity.
  const auto biased = static_cast<std::uint64_t>(top - 51);
  const std::uint64_t bits =
      std::min((biased << 52) + (mant - (std::uint64_t{1} << 52)) + round_up,
               std::uint64_t{0x7ff} << 52);
  return std::bit_cast<double>(bits | sign);
}

}  // namespace

void ExactSum::add_nonfinite(double v) {
  nonfinite_ = has_nonfinite_ ? nonfinite_ + v : v;
  has_nonfinite_ = true;
}

void ExactSum::normalize() {
  pending_ = 0;
  if (lo_ >= hi_) return;
  std::int64_t carry = 0;
  for (unsigned i = lo_; i < hi_; ++i) {
    const std::int64_t v = digits_[i] + carry;
    digits_[i] = v & static_cast<std::int64_t>(kDigitMask);
    carry = v >> 32;
  }
  // The signed remainder becomes the new top slot. At the top of the
  // register it wraps, like any fixed-width integer (beyond ~2^77
  // worst-case addends).
  if (carry != 0 && hi_ < kDigits) digits_[hi_++] = carry;
}

void ExactSum::merge(const ExactSum& other) {
  std::array<std::uint8_t, kMaxRegisterBytes> reg;
  other.write_register(reg.data());
  add_register(reg.data());
}

const std::uint8_t* ExactSum::add_register(const std::uint8_t* reg) {
  const unsigned lo = reg[0];
  const unsigned n = reg[1];
  if (n == kNonfiniteMarker) {
    double v;
    std::memcpy(&v, reg + 2, sizeof(v));
    add_nonfinite(v);
    return reg + kNonfiniteRegisterBytes;
  }
  if (n == 0) return reg + 2;
  const std::uint8_t* p = reg + 2;
  for (unsigned j = 0; j + 1 < n; ++j, p += 4) {
    std::uint32_t d;
    std::memcpy(&d, p, sizeof(d));
    digits_[lo + j] += d;
  }
  std::int32_t top;
  std::memcpy(&top, p, sizeof(top));
  digits_[lo + n - 1] += top;
  lo_ = std::min(lo_, lo);
  hi_ = std::max(hi_, lo + n);
  if (++pending_ == kNormalizeEvery) normalize();
  return p + 4;
}

std::size_t ExactSum::write_register(std::uint8_t* out) const {
  if (has_nonfinite_) {
    out[0] = 0;
    out[1] = kNonfiniteMarker;
    std::memcpy(out + 2, &nonfinite_, sizeof(nonfinite_));
    return kNonfiniteRegisterBytes;
  }
  out[0] = 0;
  out[1] = 0;
  if (lo_ >= hi_) return register_bytes(0);
  // Normalize a copy: tmp[j] is digit lo_ + j, with one spare slot for a
  // sign digit.
  std::array<std::uint32_t, kDigits + 1> tmp;
  unsigned m = 0;
  std::int64_t carry = 0;
  for (unsigned i = lo_; i < hi_; ++i) {
    const std::int64_t v = digits_[i] + carry;
    tmp[m++] = static_cast<std::uint32_t>(v);
    carry = v >> 32;
  }
  while (carry != 0 && carry != -1 && lo_ + m < kDigits) {
    tmp[m++] = static_cast<std::uint32_t>(carry);
    carry >>= 32;
  }
  // Above tmp, every digit is `ext`: the sign extension.
  const std::uint32_t ext = carry < 0 ? 0xffffffffu : 0;

  // Trim to the canonical window tmp[a, b).
  unsigned a = 0;
  while (a < m && tmp[a] == 0) ++a;
  unsigned b = 0;
  if (a == m) {
    // Only the sign extension is left: zero, or -2^(32 (lo_ + m)).
    if (ext == 0 || lo_ + m >= kDigits) return register_bytes(0);
    tmp[m] = ext;
    b = m + 1;
  } else {
    b = m;
    while (b > a + 1 && tmp[b - 1] == ext) --b;
    if ((tmp[b - 1] >> 31) != (ext >> 31)) {
      // The top digit's sign bit disagrees with the sign: keep one
      // explicit sign digit.
      if (b == m) tmp[m++] = ext;
      ++b;
    }
  }
  const unsigned lo = lo_ + a;
  const unsigned n = std::min(b - a, static_cast<unsigned>(kDigits) - lo);
  out[0] = static_cast<std::uint8_t>(lo);
  out[1] = static_cast<std::uint8_t>(n);
  for (unsigned j = 0; j < n; ++j) {
    std::memcpy(out + 2 + 4 * j, &tmp[a + j], sizeof(std::uint32_t));
  }
  return register_bytes(n);
}

void ExactSum::append_register(std::vector<std::uint8_t>& out) const {
  const std::size_t at = out.size();
  out.resize(at + kMaxRegisterBytes);
  out.resize(at + write_register(out.data() + at));
}

double ExactSum::value() const {
  if (has_nonfinite_) return nonfinite_;
  std::array<std::uint8_t, kMaxRegisterBytes> reg;
  write_register(reg.data());
  return register_value(reg.data());
}

bool ExactSum::is_zero() const {
  if (has_nonfinite_) return false;
  std::array<std::uint8_t, kMaxRegisterBytes> reg;
  write_register(reg.data());
  return reg[1] == 0;
}

void ExactSum::clear() {
  for (unsigned i = lo_; i < hi_; ++i) digits_[i] = 0;
  lo_ = kDigits;
  hi_ = 0;
  pending_ = 0;
  nonfinite_ = 0.0;
  has_nonfinite_ = false;
}

const char* ExactSum::check_register(std::span<const std::uint8_t> bytes,
                                     std::size_t& length) {
  if (bytes.size() < 2) return "truncated register";
  const unsigned lo = bytes[0];
  const unsigned n = bytes[1];
  if (n == kNonfiniteMarker) {
    if (lo != 0) return "non-canonical non-finite register";
    if (bytes.size() < kNonfiniteRegisterBytes) return "truncated register";
    double v;
    std::memcpy(&v, bytes.data() + 2, sizeof(v));
    if (std::isfinite(v)) return "finite value in the non-finite side channel";
    length = kNonfiniteRegisterBytes;
    return nullptr;
  }
  if (n == 0) {
    if (lo != 0) return "non-canonical zero window";
    length = 2;
    return nullptr;
  }
  if (lo + n > kDigits) return "window runs past the register";
  if (bytes.size() < register_bytes(n)) return "truncated digit run";
  const std::uint8_t* digits = bytes.data() + 2;
  const std::uint32_t top = load_digit(digits, n - 1);
  if (load_digit(digits, 0) == 0) return "non-canonical window: zero low digit";
  if (n >= 2) {
    const bool next_negative = (load_digit(digits, n - 2) >> 31) != 0;
    if ((top == 0 && !next_negative) || (top == 0xffffffffu && next_negative)) {
      return "non-canonical window: redundant sign digit";
    }
  }
  length = register_bytes(n);
  return nullptr;
}

double ExactSum::register_value(const std::uint8_t* reg) {
  const unsigned lo = reg[0];
  const unsigned n = reg[1];
  if (n == kNonfiniteMarker) {
    double v;
    std::memcpy(&v, reg + 2, sizeof(v));
    return v;
  }
  return window_value(lo, n, reg + 2);
}

ExactSum ExactSum::restore(std::span<const std::uint8_t> bytes) {
  std::size_t length = 0;
  const char* error = check_register(bytes, length);
  if (error != nullptr) {
    throw std::invalid_argument(std::string("ExactSum::restore: ") + error);
  }
  if (length != bytes.size()) {
    throw std::invalid_argument(
        "ExactSum::restore: bytes after the register");
  }
  ExactSum s;
  s.add_register(bytes.data());
  return s;
}

}  // namespace fed
