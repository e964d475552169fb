// Exactly-associative accumulation of doubles.
//
// Floating-point addition is not associative, so a sum distributed over
// aggregator shards would normally depend on how the addends were
// partitioned — the one thing a hierarchical reduction must not do.
// ExactSum removes the problem at the root: every finite double is a
// (sign, 53-bit integer, power-of-two) triple, so its full bit pattern
// lands exactly in a wide fixed-point register covering the entire
// double range, 2^-1074 through 2^1023. Accumulation is then integer
// addition — exact, associative, and commutative — and the sum is
// rounded to the nearest double (round-half-even) exactly once, at
// value().
//
// Consequences the aggregation layer builds on (sim/aggregate.h):
//   - add()/merge()/add_register() in any order and any grouping produce
//     the same exact sum, hence bit-identical value()s and bit-identical
//     canonical registers;
//   - merging per-shard partial sums equals the single-accumulator sum
//     exactly, so sharding cannot change the aggregate;
//   - value() is the correctly-rounded double of the exact real sum.
//
// Two forms of the same number:
//
// * The scratch register (this class) is the fast form used only while
//   a sum is being built: a carry-save array of kDigits signed 32-bit
//   digits held in int64 slots (Neal's "small superaccumulator",
//   arXiv:1505.05571). add() splits a double's 53-bit mantissa across
//   three adjacent digits with three branch-free signed updates and never
//   propagates a carry; each slot absorbs 2^30 adds before the register
//   normalizes itself. 68 digits (2176 bits) cover the 2098-bit double
//   range plus headroom for ~2^77 worst-case addends. Under 600 bytes,
//   it stays in L1 cache. The aggregation fold (sim/aggregate.h) feeds
//   it a stored window plus, per coordinate, either two exact level
//   sums from its SIMD extraction pass (and any rests below them) or,
//   for short batches and inf/NaN or near-overflow columns, every
//   addend through add().
//
// * The register form (stored and wire form, append_register()) is the
//   canonical trimmed window of the normalized sum:
//     finite      u8 lo | u8 n | n * u32 digits (little-endian)
//     non-finite  u8 0  | u8 0xFF | f64 value (±inf or NaN)
//   The finite value is the n-digit two's-complement integer d (digit j
//   weighs 2^(32*(lo+j)); the top digit is read as signed) times
//   2^-kBias. It is canonical: zero is n = 0 with lo = 0, the low digit
//   is nonzero, the top digit is not a redundant sign digit, and
//   lo + n <= kDigits. Equal sums therefore have byte-identical
//   registers. A typical federated coordinate needs 3 digits: 14 bytes.
//
// Non-finite addends (inf/NaN) cannot live in fixed point; they
// accumulate in an IEEE side channel that, when engaged, dominates
// value() the way ordinary IEEE addition would (the finite part is then
// irrelevant and the register form drops it).

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fed {

class ExactSum {
 public:
  static constexpr std::size_t kDigits = 68;
  static constexpr int kDigitBits = 32;
  // Bit 0 of digit 0 weighs 2^-kBias (the smallest subnormal double).
  static constexpr int kBias = 1074;
  // The digit-count byte that marks a non-finite register.
  static constexpr std::uint8_t kNonfiniteMarker = 0xFF;
  // Bytes of a register with n digits, and of a non-finite register.
  static constexpr std::size_t register_bytes(std::size_t n) {
    return 2 + 4 * n;
  }
  static constexpr std::size_t kNonfiniteRegisterBytes = 2 + 8;
  static constexpr std::size_t kMaxRegisterBytes = 2 + 4 * kDigits;
  // Byte length of the validated register starting at `reg`.
  static std::size_t register_size(const std::uint8_t* reg) {
    return reg[1] == kNonfiniteMarker ? kNonfiniteRegisterBytes
                                      : register_bytes(reg[1]);
  }

  // Adds one double, exactly. ±0 is a no-op; non-finite values divert
  // to the IEEE side channel.
  void add(double v) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    const auto biased = static_cast<unsigned>(bits >> 52) & 0x7ffu;
    if (biased == 0x7ffu) {
      add_nonfinite(v);
      return;
    }
    const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
    // v = mant * 2^(pos - kBias): normals carry the hidden bit and sit at
    // pos = biased - 1; subnormals share pos 0 with the smallest normals.
    const std::uint64_t mant =
        biased != 0 ? frac | (std::uint64_t{1} << 52) : frac;
    if (mant == 0) return;
    const unsigned pos = biased != 0 ? biased - 1 : 0;
    const unsigned k = pos / kDigitBits;
    const unsigned s = pos % kDigitBits;
    // mant << s spans at most 85 bits: three digits. Each shift count
    // stays below 64 for every s, so no branch is needed on s == 0.
    const auto d0 = static_cast<std::int64_t>((mant << s) & kDigitMask);
    const auto d1 = static_cast<std::int64_t>((mant >> (32 - s)) & kDigitMask);
    const auto d2 = static_cast<std::int64_t>((mant >> 32) >> (32 - s));
    // neg is 0 or -1; (x ^ neg) - neg negates x exactly when neg = -1.
    const std::int64_t neg = -static_cast<std::int64_t>(bits >> 63);
    digits_[k] += (d0 ^ neg) - neg;
    digits_[k + 1] += (d1 ^ neg) - neg;
    digits_[k + 2] += (d2 ^ neg) - neg;
    lo_ = std::min(lo_, k);
    hi_ = std::max(hi_, k + 3);
    if (++pending_ == kNormalizeEvery) normalize();
  }

  // Adds another accumulator's exact state (the shard-merge operation).
  void merge(const ExactSum& other);

  // Adds the value of one canonical register (as written by
  // append_register) and returns the pointer just past it. The register
  // must already be validated (check_register); this is the trusted
  // inner-loop path.
  const std::uint8_t* add_register(const std::uint8_t* reg);

  // Writes this sum's canonical register to `out`, which must have room
  // for kMaxRegisterBytes, and returns its length.
  std::size_t write_register(std::uint8_t* out) const;
  // Appends this sum's canonical register to `out`.
  void append_register(std::vector<std::uint8_t>& out) const;

  // The nearest double to the exact accumulated sum (ties to even;
  // overflow returns ±inf). If any non-finite value was added, returns
  // the IEEE combination of those values instead, matching what plain
  // summation would have propagated.
  double value() const;

  bool is_zero() const;

  // Back to the empty sum, touching only the digits in use.
  void clear();

  bool has_nonfinite() const { return has_nonfinite_; }
  double nonfinite() const { return nonfinite_; }

  // Validates the register at the front of `bytes`: returns nullptr and
  // sets `length` to its byte length when it is canonical, otherwise a
  // static description of the defect (truncated digit run, a window that
  // runs past the register, a redundant sign digit, a zero low digit, a
  // finite value in the non-finite side channel).
  static const char* check_register(std::span<const std::uint8_t> bytes,
                                    std::size_t& length);

  // The rounded value of one validated register, without a scratch
  // register.
  static double register_value(const std::uint8_t* reg);

  // The sum held by one register. Throws std::invalid_argument unless
  // `bytes` is exactly one canonical register.
  static ExactSum restore(std::span<const std::uint8_t> bytes);

 private:
  static constexpr std::uint64_t kDigitMask = 0xffffffffu;
  // Every add moves a slot by less than 2^32, so an int64 slot absorbs
  // 2^31 adds; normalizing every 2^30 leaves a factor of two to spare.
  static constexpr std::uint32_t kNormalizeEvery = 1u << 30;

  void add_nonfinite(double v);
  // Propagates carries so digits [lo_, hi_ - 1) lie in [0, 2^32) and the
  // top slot holds the signed remainder.
  void normalize();

  // Carry-save digits: the sum is sum_i digits_[i] * 2^(32 i - kBias).
  // Slots outside [lo_, hi_) are zero.
  std::array<std::int64_t, kDigits> digits_{};
  unsigned lo_ = kDigits;
  unsigned hi_ = 0;
  std::uint32_t pending_ = 0;  // adds since the last normalize()
  double nonfinite_ = 0.0;     // meaningful iff has_nonfinite_
  bool has_nonfinite_ = false;
};

}  // namespace fed
