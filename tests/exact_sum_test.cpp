#include "tensor/exact_sum.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <vector>

namespace fed {
namespace {

TEST(ExactSum, EmptyIsZero) {
  ExactSum s;
  EXPECT_TRUE(s.is_zero());
  EXPECT_EQ(s.value(), 0.0);
}

TEST(ExactSum, SingleValueRoundTripsExactly) {
  const double cases[] = {1.0,
                          -1.0,
                          0.5,
                          3.141592653589793,
                          -2.2250738585072014e-308,  // smallest normal
                          5e-324,                    // smallest subnormal
                          -5e-324,
                          1.7976931348623157e308,    // largest finite
                          123456789.123456789,
                          -0.1};
  for (const double v : cases) {
    ExactSum s;
    s.add(v);
    EXPECT_EQ(s.value(), v) << "value " << v;
  }
}

TEST(ExactSum, CancellationIsExact) {
  // 1e16 + 1 - 1e16 loses the 1 in plain double arithmetic when summed
  // left to right as (1e16 + 1) happens to round, but here every addend
  // is held exactly.
  ExactSum s;
  s.add(1e16);
  s.add(1.0);
  s.add(-1e16);
  EXPECT_EQ(s.value(), 1.0);

  s = ExactSum();
  s.add(1e308);
  s.add(-1e308);
  s.add(5e-324);
  EXPECT_EQ(s.value(), 5e-324);
  EXPECT_FALSE(s.is_zero());
}

TEST(ExactSum, SumIsIndependentOfOrderAndPartition) {
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> coord(-1.0, 1.0);
  std::uniform_int_distribution<int> mag(-200, 200);
  std::vector<double> values(257);
  for (auto& v : values) v = std::ldexp(coord(rng), mag(rng));

  ExactSum forward;
  for (const double v : values) forward.add(v);
  const double expected = forward.value();

  // Reversed order.
  ExactSum reversed;
  for (auto it = values.rbegin(); it != values.rend(); ++it) reversed.add(*it);
  EXPECT_EQ(reversed.value(), expected);

  // Random shard partitions merged in shuffled order.
  for (int trial = 0; trial < 10; ++trial) {
    std::uniform_int_distribution<std::size_t> pick(0, 6);
    std::vector<ExactSum> shards(7);
    std::shuffle(values.begin(), values.end(), rng);
    for (const double v : values) shards[pick(rng)].add(v);
    std::shuffle(shards.begin(), shards.end(), rng);
    ExactSum merged;
    for (const ExactSum& s : shards) merged.merge(s);
    EXPECT_EQ(merged.value(), expected) << "trial " << trial;
  }
}

TEST(ExactSum, ValueIsCorrectlyRounded) {
  // 2^60 + 1: needs 61 significant bits, so rounding must drop the 1
  // (round half even lands on the even mantissa).
  ExactSum s;
  s.add(std::ldexp(1.0, 60));
  s.add(1.0);
  EXPECT_EQ(s.value(), std::ldexp(1.0, 60));

  // 2^60 + 2^7 + 1: the tail is just past half an ulp (ulp = 2^8), so it
  // rounds up.
  s = ExactSum();
  s.add(std::ldexp(1.0, 60));
  s.add(128.0);
  s.add(1.0);
  EXPECT_EQ(s.value(), std::ldexp(1.0, 60) + 256.0);

  // Exactly half an ulp with an even mantissa: ties to even, stays.
  s = ExactSum();
  s.add(std::ldexp(1.0, 60));
  s.add(128.0);
  EXPECT_EQ(s.value(), std::ldexp(1.0, 60));
}

TEST(ExactSum, MatchesPlainSummationOnBenignData) {
  // When every addend has the same exponent scale, plain summation is
  // well-conditioned; the exact sum must agree with long double accuracy.
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  ExactSum s;
  long double reference = 0.0L;
  for (int i = 0; i < 10000; ++i) {
    const double v = dist(rng);
    s.add(v);
    reference += static_cast<long double>(v);
  }
  EXPECT_NEAR(s.value(), static_cast<double>(reference), 1e-12);
}

TEST(ExactSum, NonFiniteAddendsPropagateLikeIeee) {
  const double inf = std::numeric_limits<double>::infinity();
  ExactSum s;
  s.add(1.0);
  s.add(inf);
  EXPECT_EQ(s.value(), inf);
  EXPECT_FALSE(s.is_zero());

  // inf + (-inf) is NaN, exactly as plain summation would produce.
  s.add(-inf);
  EXPECT_TRUE(std::isnan(s.value()));

  ExactSum nan_side;
  nan_side.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(std::isnan(nan_side.value()));

  // Merging carries the side-channel across shards.
  ExactSum finite;
  finite.add(2.0);
  finite.merge(nan_side);
  EXPECT_TRUE(std::isnan(finite.value()));
}

TEST(ExactSum, OverflowOfTheExactSumReturnsInfinity) {
  ExactSum s;
  const double huge = 1.7976931348623157e308;
  s.add(huge);
  s.add(huge);
  EXPECT_EQ(s.value(), std::numeric_limits<double>::infinity());
  // But it is still exact underneath: subtracting one addend recovers
  // the other, where plain double arithmetic would be stuck at inf.
  s.add(-huge);
  EXPECT_EQ(s.value(), huge);
}

TEST(ExactSum, RestoreRoundTripsRawState) {
  ExactSum s;
  s.add(0.1);
  s.add(-3e200);
  s.add(5e-324);
  std::vector<std::uint8_t> reg;
  s.append_register(reg);
  const ExactSum r = ExactSum::restore(reg);
  EXPECT_EQ(r.value(), s.value());
  // The raw state itself round-trips: same canonical register bytes.
  std::vector<std::uint8_t> again;
  r.append_register(again);
  EXPECT_EQ(again, reg);
  // A register cut short, or with bytes after it, is refused.
  const std::vector<std::uint8_t> short_reg(reg.begin(), reg.end() - 1);
  EXPECT_THROW(ExactSum::restore(short_reg), std::invalid_argument);
  std::vector<std::uint8_t> long_reg = reg;
  long_reg.push_back(0);
  EXPECT_THROW(ExactSum::restore(long_reg), std::invalid_argument);
}

}  // namespace
}  // namespace fed
