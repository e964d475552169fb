// Oracle for the exact aggregation path: the dense 34 x 64-bit
// two's-complement Kulisch fold the simulator used before the carry-save
// scratch register and trimmed windows (tensor/exact_sum.h), kept here
// as the reference. Adversarial streams go through every way the
// simulator can split a sum — ExactSum add/merge/registers, the
// column-wise PartialAggregate fold over random shard and coordinate
// block partitions, the FPS2 codec, multi-way and pairwise merges — and
// every value() must equal the reference bit for bit. The last case
// holds ColumnFold's lane-wise extraction fold to the per-addend
// ExactSum fold, byte for byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "sim/aggregate.h"
#include "support/serialize.h"
#include "tensor/exact_sum.h"

namespace fed {
namespace {

// The reference: one dense 2176-bit register per sum, every add a
// carry/borrow propagation, rounded to nearest-even once at value().
class DenseExactSum {
 public:
  static constexpr std::size_t kLimbs = 34;
  static constexpr int kBias = 1074;

  void add(double v) {
    if (v == 0.0) return;
    if (!std::isfinite(v)) {
      nonfinite_ = has_nonfinite_ ? nonfinite_ + v : v;
      has_nonfinite_ = true;
      return;
    }
    int exp = 0;
    const double m = std::frexp(v, &exp);  // |m| in [0.5, 1)
    const auto mant = static_cast<std::int64_t>(std::ldexp(m, 53));
    const bool negative = mant < 0;
    auto mag = static_cast<std::uint64_t>(negative ? -mant : mant);
    int offset = exp - 53 + kBias;  // bit position of mag's LSB
    if (offset < 0) {
      mag >>= -offset;  // subnormal: the shifted-out bits are zero
      offset = 0;
    }
    apply(mag, static_cast<std::size_t>(offset), negative);
  }

  double value() const {
    if (has_nonfinite_) return nonfinite_;
    std::array<std::uint64_t, kLimbs> mag = limbs_;
    const bool negative = (limbs_[kLimbs - 1] >> 63) != 0;
    if (negative) {
      std::uint64_t carry = 1;
      for (auto& l : mag) {
        l = ~l + carry;
        carry = (l < carry) ? 1 : 0;
      }
    }
    int top = -1;
    for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
      const std::uint64_t l = mag[static_cast<std::size_t>(i)];
      if (l != 0) {
        top = i * 64 + 63 - std::countl_zero(l);
        break;
      }
    }
    if (top < 0) return 0.0;
    if (top <= 52) {
      const double r = std::ldexp(static_cast<double>(mag[0]), -kBias);
      return negative ? -r : r;
    }
    const std::size_t shift = static_cast<std::size_t>(top) - 52;
    const std::size_t k = shift / 64;
    const unsigned s = shift % 64;
    std::uint64_t mant = mag[k] >> s;
    if (s != 0 && k + 1 < kLimbs) mant |= mag[k + 1] << (64 - s);
    mant &= (std::uint64_t{1} << 53) - 1;
    const std::size_t gb = shift - 1;
    const bool guard = (mag[gb / 64] >> (gb % 64)) & 1;
    bool sticky = false;
    for (std::size_t i = 0; i < gb / 64 && !sticky; ++i) sticky = mag[i] != 0;
    if (!sticky && gb % 64 != 0) {
      sticky = (mag[gb / 64] & ((std::uint64_t{1} << (gb % 64)) - 1)) != 0;
    }
    int e = static_cast<int>(shift) - kBias;
    if (guard && (sticky || (mant & 1))) {
      ++mant;
      if (mant == (std::uint64_t{1} << 53)) {
        mant >>= 1;
        ++e;
      }
    }
    const double r = std::ldexp(static_cast<double>(mant), e);
    return negative ? -r : r;
  }

 private:
  void apply(std::uint64_t mag, std::size_t offset, bool negative) {
    const std::size_t k = offset / 64;
    const unsigned s = offset % 64;
    const std::uint64_t words[2] = {mag << s, s ? mag >> (64 - s) : 0};
    std::uint64_t carry = 0;
    for (std::size_t j = 0; k + j < kLimbs && (j < 2 || carry); ++j) {
      const std::uint64_t w = j < 2 ? words[j] : 0;
      const std::uint64_t cur = limbs_[k + j];
      if (!negative) {
        std::uint64_t sum = cur + w;
        const std::uint64_t c1 = sum < w ? 1 : 0;
        sum += carry;
        const std::uint64_t c2 = sum < carry ? 1 : 0;
        limbs_[k + j] = sum;
        carry = c1 | c2;
      } else {
        const std::uint64_t d1 = cur - w;
        const std::uint64_t b1 = cur < w ? 1 : 0;
        const std::uint64_t d2 = d1 - carry;
        const std::uint64_t b2 = d1 < carry ? 1 : 0;
        limbs_[k + j] = d2;
        carry = b1 | b2;
      }
    }
  }

  std::array<std::uint64_t, kLimbs> limbs_{};
  double nonfinite_ = 0.0;
  bool has_nonfinite_ = false;
};

// Bitwise equality, except that any NaN matches any NaN: the side
// channel's NaN payload follows IEEE operand order, which a different
// partition may change, while NaN-ness itself cannot change.
::testing::AssertionResult same_value(double got, double want) {
  if (std::isnan(want) ? std::isnan(got)
                       : std::bit_cast<std::uint64_t>(got) ==
                             std::bit_cast<std::uint64_t>(want)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "got " << got << " (0x" << std::hex
         << std::bit_cast<std::uint64_t>(got) << "), want " << want << " (0x"
         << std::bit_cast<std::uint64_t>(want) << ")";
}

double random_mantissa(std::mt19937_64& rng) {
  return std::uniform_real_distribution<double>(0.5, 1.0)(rng);
}

double random_sign(std::mt19937_64& rng, double v) {
  return (rng() & 1) != 0 ? -v : v;
}

// The adversarial streams, each `length` terms long.
std::vector<std::vector<double>> adversarial_streams(std::size_t length) {
  std::mt19937_64 rng(20200315);
  const double max = std::numeric_limits<double>::max();
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::vector<double>> streams;
  const auto make = [&](auto&& term) {
    std::vector<double> s(length);
    for (std::size_t i = 0; i < length; ++i) s[i] = term(i);
    streams.push_back(std::move(s));
  };
  // Cancellation that crosses zero many times: big terms that undo each
  // other, carrying small residues across many scales.
  double big = 0.0;
  make([&](std::size_t i) {
    if (i % 2 == 0) {
      big = random_sign(rng, std::ldexp(random_mantissa(rng),
                                        static_cast<int>(rng() % 120) - 60));
      return big;
    }
    return -big + std::ldexp(random_mantissa(rng) - 0.75,
                             static_cast<int>(rng() % 100) - 90);
  });
  // Exact zero crossings at the top of the range.
  make([&](std::size_t i) {
    return (i % 3 == 2) ? -std::ldexp(1.0, 1000)
                        : std::ldexp(0.5, 1000) + (i % 2 ? 1.0 : -1.0);
  });
  // Subnormals, with a few of the smallest normals.
  make([&](std::size_t) {
    const auto raw = rng() % ((std::uint64_t{1} << 52) + 4096);
    return random_sign(rng, std::bit_cast<double>(raw));
  });
  // Terms near 2^+1000 and 2^-1000, interleaved.
  make([&](std::size_t i) {
    const int e = (i % 2 ? 1000 : -1000) + static_cast<int>(rng() % 40) - 20;
    return random_sign(rng, std::ldexp(random_mantissa(rng), e));
  });
  // ±0 among small terms.
  make([&](std::size_t i) {
    switch (i % 4) {
      case 0: return 0.0;
      case 1: return -0.0;
      default: return random_sign(rng, random_mantissa(rng));
    }
  });
  // Inf/NaN mixes on top of finite terms.
  make([&](std::size_t i) {
    switch (i % 11) {
      case 3: return inf;
      case 7: return -inf;
      default: return random_sign(rng, random_mantissa(rng));
    }
  });
  make([&](std::size_t i) {
    return i == length / 2 ? nan : random_sign(rng, 1e300 * random_mantissa(rng));
  });
  make([&](std::size_t i) { return i % 5 == 0 ? inf : max; });
  // Exact sums that overflow to ±inf, with and without partial recovery.
  make([&](std::size_t) { return max * random_mantissa(rng); });
  make([&](std::size_t) { return -max * random_mantissa(rng); });
  make([&](std::size_t i) { return i % 3 == 2 ? -max : max; });
  // Rounding boundaries: 2^60 plus ties and near-ties.
  make([&](std::size_t i) {
    return i == 0 ? std::ldexp(1.0, 60)
                  : std::ldexp(1.0, 6 + static_cast<int>(rng() % 3)) *
                        (i % 2 ? 1.0 : 0.5);
  });
  // Exact ties (half an ulp of the leading term) broken only by a bit
  // far below them, in either direction, for both signs and at both ends
  // of the range; the rest of each stream is zeros.
  for (const int scale : {60, 1000}) {
    for (const double sign : {1.0, -1.0}) {
      for (const int far : {-1074, -600, -64, -40, scale - 100}) {
        for (const double direction : {1.0, -1.0}) {
          std::vector<double> s(length, 0.0);
          s[0] = sign * std::ldexp(1.0, scale);
          s[length / 2] = sign * std::ldexp(1.0, scale - 53);
          s[length - 1] = direction * std::ldexp(1.0, far);
          streams.push_back(std::move(s));
        }
      }
    }
  }
  // Everything at once: every exponent, both signs.
  make([&](std::size_t) {
    const auto bits = rng() & ~(std::uint64_t{0x7ff} << 52 | 0);
    const auto e = std::uint64_t{rng() % 2047} << 52;
    return std::bit_cast<double>(bits | e);
  });
  return streams;
}

double reference_sum(const std::vector<double>& stream) {
  DenseExactSum ref;
  for (const double v : stream) ref.add(v);
  return ref.value();
}

TEST(ExactSumOracle, AddMatchesTheDenseFoldOnAdversarialStreams) {
  for (const auto& stream : adversarial_streams(257)) {
    const double want = reference_sum(stream);
    ExactSum s;
    for (const double v : stream) s.add(v);
    EXPECT_TRUE(same_value(s.value(), want));
    // Reversed order and a register round trip change nothing.
    ExactSum r;
    for (auto it = stream.rbegin(); it != stream.rend(); ++it) r.add(*it);
    EXPECT_TRUE(same_value(r.value(), want));
    std::vector<std::uint8_t> reg;
    s.append_register(reg);
    EXPECT_TRUE(same_value(ExactSum::restore(reg).value(), want));
    EXPECT_TRUE(same_value(ExactSum::register_value(reg.data()), want));
  }
}

TEST(ExactSumOracle, RandomMergeTreesMatchTheDenseFold) {
  std::mt19937_64 rng(7);
  for (const auto& stream : adversarial_streams(301)) {
    const double want = reference_sum(stream);
    std::vector<std::uint8_t> canonical;
    for (int trial = 0; trial < 8; ++trial) {
      // Random partition into 1..9 parts; parts meet through merge() or
      // through their registers, in shuffled order.
      const std::size_t parts = 1 + rng() % 9;
      std::vector<ExactSum> sums(parts);
      for (const double v : stream) sums[rng() % parts].add(v);
      std::shuffle(sums.begin(), sums.end(), rng);
      ExactSum total;
      for (const ExactSum& part : sums) {
        if ((rng() & 1) != 0) {
          total.merge(part);
        } else {
          std::vector<std::uint8_t> reg;
          part.append_register(reg);
          total.add_register(reg.data());
        }
      }
      EXPECT_TRUE(same_value(total.value(), want)) << "trial " << trial;
      // The canonical register is the same whatever the partition.
      std::vector<std::uint8_t> reg;
      total.append_register(reg);
      if (trial == 0) canonical = reg;
      if (!std::isnan(want)) {
        EXPECT_EQ(reg, canonical) << "trial " << trial;
      }
    }
  }
}

// The streams become the columns of a batch of updates (stream s is
// coordinate s), so every coordinate of the aggregate is one stream's
// sum. Under the simple-average scheme each coefficient is 1, so the
// finalized coordinate is exactly reference / contributors.
TEST(ExactSumOracle, ShardAndBlockPartitionsMatchTheDenseFold) {
  constexpr std::size_t kUpdates = 61;
  const auto streams = adversarial_streams(kUpdates);
  const std::size_t dim = streams.size();
  std::vector<Vector> updates(kUpdates, Vector(dim));
  for (std::size_t s = 0; s < dim; ++s) {
    for (std::size_t k = 0; k < kUpdates; ++k) updates[k][s] = streams[s][k];
  }
  std::vector<Contribution> contributions;
  for (std::size_t k = 0; k < kUpdates; ++k) {
    contributions.push_back({k, &updates[k], 1.0});
  }
  Vector want(dim);
  for (std::size_t s = 0; s < dim; ++s) {
    want[s] = reference_sum(streams[s]) / static_cast<double>(kUpdates);
  }

  std::mt19937_64 rng(11);
  const auto scheme = SamplingScheme::kWeightedThenSimpleAverage;
  for (int trial = 0; trial < 24; ++trial) {
    // Random shards; each shard folds its batch in random pieces, each
    // piece split into random coordinate blocks (or one update at a
    // time), then ships its partial through the FPS2 codec.
    const std::size_t shards = 1 + rng() % 7;
    std::vector<std::vector<Contribution>> owned(shards);
    for (const Contribution& c : contributions) owned[rng() % shards].push_back(c);
    std::vector<PartialAggregate> partials;
    for (const auto& batch : owned) {
      PartialAggregate partial(scheme, dim);
      std::size_t done = 0;
      while (done < batch.size()) {
        const std::size_t take = 1 + rng() % (batch.size() - done);
        const std::span<const Contribution> piece(batch.data() + done, take);
        if (take == 1 && (rng() & 1) != 0) {
          partial.accumulate(piece.front());
        } else {
          ColumnFold fold(partial, piece, 1 + rng() % dim);
          std::vector<std::size_t> order(fold.blocks());
          for (std::size_t b = 0; b < order.size(); ++b) order[b] = b;
          std::shuffle(order.begin(), order.end(), rng);
          for (const std::size_t b : order) fold.run(b);
          fold.commit();
        }
        done += take;
      }
      PartialSumUpdate message;
      message.partial = std::move(partial);
      partials.push_back(
          decode_partial_sum(encode_partial_sum(message)).partial);
    }
    std::shuffle(partials.begin(), partials.end(), rng);
    PartialAggregate root(scheme, dim);
    if ((rng() & 1) != 0) {
      root.merge(std::move(partials));
    } else {
      for (PartialAggregate& p : partials) root.merge(std::move(p));
    }
    Vector w(dim);
    ASSERT_TRUE(root.finalize(w));
    for (std::size_t s = 0; s < dim; ++s) {
      EXPECT_TRUE(same_value(w[s], want[s]))
          << "trial " << trial << ", stream " << s;
    }
  }
}

// One column kind: term k of K for one coordinate, before its
// coefficient. Each kind aims at a branch of the extraction fold.
double column_term(int kind, std::size_t k, std::size_t count,
                   std::mt19937_64& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  const auto odd_bits = [&](double v) {  // a full, odd mantissa
    return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) | 1);
  };
  const std::size_t mid = count / 2;
  switch (kind) {
    case 0:  // a local solution near the broadcast: no rest
      return 0.7 + 1e-3 * (random_mantissa(rng) - 0.75);
    case 1:  // same sign, full mantissas near the top of a binade: the
             // level sum needs every bit of 2^M >= K + 2
      return -odd_bits(std::ldexp(1.0 + random_mantissa(rng), 3));
    case 2:  // 1 beside terms 2^-120 below it: rests after both levels
      return k == mid ? 1.0
                      : random_sign(rng, std::ldexp(random_mantissa(rng), -120));
    case 3:  // all zero, with both signs
      return (k % 2) != 0 ? -0.0 : 0.0;
    case 4:  // ±0 among small terms
      return k % 3 == 0 ? -0.0 : random_sign(rng, random_mantissa(rng));
    case 5:  // subnormals and the smallest normals
      return random_sign(
          rng, std::bit_cast<double>(rng() % ((std::uint64_t{1} << 53) + 7)));
    case 6:  // near 2^1023: sigma would overflow
      return random_sign(rng, max * random_mantissa(rng));
    case 7:  // 2^1015: sigma overflows only for the larger K
      return random_sign(rng, std::ldexp(random_mantissa(rng), 1015));
    case 8:  // ±2^1000 cancellation beside small terms
      if (k % 2 == 0) return std::ldexp(k % 4 == 0 ? 1.0 : -1.0, 1000);
      return random_sign(rng, random_mantissa(rng));
    case 9:  // 10^-200 to 10^150
      return random_sign(
          rng, std::pow(10.0, std::uniform_real_distribution<double>(
                                  -200.0, 150.0)(rng)));
    case 10:  // one infinite term
      return k == mid ? -inf : random_sign(rng, random_mantissa(rng));
    case 11:  // one NaN term
      return k == mid ? std::numeric_limits<double>::quiet_NaN()
                      : random_mantissa(rng);
    // 1.5 beside terms just over half the first level's grid 2^(M-51):
    // each rounds up and leaves a negative rest of nearly 2^-53 sigma_0,
    // the most the second level admits.
    case 12: {
      const int m = std::bit_width(count + 1);
      if (k == 0) return 1.5;
      return odd_bits(std::ldexp(1.0 + 0.05 * random_mantissa(rng), m - 52));
    }
    case 13:  // terms of both signs that nearly cancel
      return random_sign(rng, 2.0 + 1e-3 * random_mantissa(rng));
    default:  // wide spans, zero-centered
      return 0.1 * std::normal_distribution<double>()(rng);
  }
}
// Odd, so coordinates c, c + kColumnKinds, ... put kind c in every lane
// of a group of four.
constexpr int kColumnKinds = 15;

// The registers as one byte vector per coordinate.
std::vector<std::vector<std::uint8_t>> split_registers(
    std::span<const std::uint8_t> bytes) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t at = 0; at < bytes.size();) {
    const std::size_t n = ExactSum::register_size(bytes.data() + at);
    out.emplace_back(bytes.begin() + at, bytes.begin() + at + n);
    at += n;
  }
  return out;
}

// Coordinate c holds column kind c % kColumnKinds, beside three lanes of
// other kinds in its group of four.
TEST(ExactSumOracle, ExtractionFoldMatchesTheScalarFold) {
  std::mt19937_64 rng(24);
  for (const auto scheme : {SamplingScheme::kWeightedThenSimpleAverage,
                            SamplingScheme::kUniformThenWeightedAverage}) {
    const bool weighted =
        scheme == SamplingScheme::kUniformThenWeightedAverage;
    for (const std::size_t count : {1, 2, 29, 30, 31, 62, 63, 64, 200}) {
      // Dims 1-9 give every tail length after the groups of four.
      for (const std::size_t dim :
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 4 * kColumnKinds + 1}) {
        PartialAggregate partial(scheme, dim);
        // The per-addend fold of every batch so far, per coordinate.
        std::vector<ExactSum> want(dim);
        // A second batch folds into a partial that has a base register,
        // in blocks of 7: one group of four and a tail of three each.
        for (const std::size_t block : {0, 7}) {
          std::vector<Vector> updates(count, Vector(dim));
          std::vector<Contribution> batch;
          for (std::size_t k = 0; k < count; ++k) {
            for (std::size_t c = 0; c < dim; ++c) {
              updates[k][c] = column_term(static_cast<int>(c % kColumnKinds),
                                          k, count, rng);
            }
            batch.push_back(
                {k, &updates[k], 1.0 + static_cast<double>(rng() % 99)});
          }
          ColumnFold fold(partial, batch, block);
          for (std::size_t b = 0; b < fold.blocks(); ++b) fold.run(b);
          fold.commit();
          for (std::size_t c = 0; c < dim; ++c) {
            for (const Contribution& t : batch) {
              want[c].add((weighted ? t.num_samples : 1.0) * (*t.update)[c]);
            }
          }
          const auto got = split_registers(partial.coordinate_registers());
          ASSERT_EQ(got.size(), dim);
          for (std::size_t c = 0; c < dim; ++c) {
            std::vector<std::uint8_t> reg;
            want[c].append_register(reg);
            EXPECT_EQ(got[c], reg)
                << "K " << count << ", dim " << dim << ", coordinate " << c
                << " (kind " << c % kColumnKinds << "), block " << block
                << (weighted ? ", weighted" : ", simple");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fed
