#include "sim/aggregate.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace fed {

namespace {

// The canonical register of an exact zero.
std::vector<std::uint8_t> zero_registers(std::size_t count) {
  return std::vector<std::uint8_t>(count * ExactSum::register_bytes(0), 0);
}

// Appends canonical registers to a byte buffer sized for `expected`
// registers of three digits (typical of model updates), growing it
// geometrically whenever less than one worst-case register of room is
// left, so no append reallocates on its own.
class RegisterWriter {
 public:
  RegisterWriter(std::vector<std::uint8_t>& out, std::size_t expected)
      : out_(out) {
    out_.resize(expected * ExactSum::register_bytes(3) +
                ExactSum::kMaxRegisterBytes);
  }
  void put(const ExactSum& sum) {
    if (out_.size() - used_ < ExactSum::kMaxRegisterBytes) {
      out_.resize(2 * out_.size());
    }
    used_ += sum.write_register(out_.data() + used_);
  }
  void finish() { out_.resize(used_); }

 private:
  std::vector<std::uint8_t>& out_;
  std::size_t used_ = 0;
};

// ---- The extraction fold ----------------------------------------------
//
// Rump, Ogita and Oishi's ExtractVector ("Accurate Floating-Point
// Summation Part I", SIAM J. Sci. Comput. 31(1), 2008, Lemma 3.3): for
// sigma = 2^s and K terms with |p_k| <= 2^-M sigma, where 2^M >= K + 2,
//   q_k = (sigma + p_k) - sigma,   p_k -= q_k
// splits each term exactly into a multiple of 2^-53 sigma and a rest of
// magnitude at most 2^-53 sigma, and the q_k add up without any rounding
// error, in any order. Two such levels catch every bit of a column whose
// terms span fewer than about 2 (53 - M) bits; whatever is left goes to
// the exact register one term at a time. The level sums and the rests
// add up to the column's exact sum, so the canonical register is the one
// the per-addend fold writes, byte for byte.
//
// The arithmetic runs in Pair lanes: two doubles in one SIMD register
// (SSE2 on x86-64, NEON on arm64), the idiom of tensor/ops.cpp, whose
// lane-wise operations are the scalar IEEE ones. The file is compiled
// with -ffp-contract=off (src/CMakeLists.txt): a multiply fused into
// sigma + p would not be error-free.

typedef double Pair __attribute__((vector_size(16)));
typedef std::uint64_t Bits __attribute__((vector_size(16)));

// Below this many addends the per-addend fold is faster: the extraction
// reads every term twice and always pays for two level sums. Measured
// on a 4-vCPU Xeon (GCC 12.2, -O2, 4020 coordinates): at K = 4 the two
// folds cost the same, at K = 5 extraction is 5% faster, at K = 25 2x.
constexpr std::size_t kExtractMinAddends = 5;
// Coordinates per group: two Pairs.
constexpr std::size_t kGroup = 4;

Pair load(const double* p) {
  Pair v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

constexpr Bits kMagnitude = {~(std::uint64_t{1} << 63),
                             ~(std::uint64_t{1} << 63)};

// The lane-wise larger of `top` and |p|. A NaN p loses the comparison.
Pair max_magnitude(Pair top, Pair p) {
  const auto a = std::bit_cast<Bits>(p) & kMagnitude;
  const auto m = std::bit_cast<Bits>(std::bit_cast<Pair>(a) > top);
  return std::bit_cast<Pair>((m & a) | (~m & std::bit_cast<Bits>(top)));
}

// One extraction step on a double or a Pair: returns the part of `p` on
// sigma's grid and leaves the rest in `p`.
template <class T>
T extract(T sigma, T& p) {
  const T q = (sigma + p) - sigma;
  p -= q;
  return q;
}

// Two lanes through both levels.
struct PairLevels {
  Pair sigma[2];
  Pair level[2] = {};
  Bits rest = {};  // OR of the rests' bits

  void add(Pair p) {
    level[0] += extract(sigma[0], p);
    level[1] += extract(sigma[1], p);
    rest |= std::bit_cast<Bits>(p);
  }
};

// The two levels of one group of kGroup coordinates. A lane is `fast`
// when its terms are all finite and its sigma does not overflow; its
// column sum is then level[0] + level[1] plus, where `rest` is set, the
// rests left after both levels.
struct GroupLevels {
  double sigma[2][kGroup];
  double level[2][kGroup];
  bool fast[kGroup];
  bool rest[kGroup];
};

GroupLevels extract_group(std::span<const double> coeff,
                          std::span<const double* const> data, std::size_t i,
                          unsigned m) {
  // Pass 1: the largest |p_k| of each lane (a NaN term is caught below).
  Pair top_lo = {};
  Pair top_hi = {};
  for (std::size_t k = 0; k < coeff.size(); ++k) {
    const Pair c = {coeff[k], coeff[k]};
    top_lo = max_magnitude(top_lo, c * load(data[k] + i));
    top_hi = max_magnitude(top_hi, c * load(data[k] + i + 2));
  }
  // sigma_0 = 2^(e + 1 + M) for the exponent e of the largest term, and
  // each level's sigma is 2^-(53 - M) of the last. A larger sigma is
  // always admissible, so a lane of zeros or tiny terms takes the
  // smallest sigma whose last grid, 2^-53 sigma_1, is still normal.
  GroupLevels g{};
  const double top[kGroup] = {top_lo[0], top_lo[1], top_hi[0], top_hi[1]};
  const std::uint64_t min_exponent = 106 - 2 * m;
  for (std::size_t j = 0; j < kGroup; ++j) {
    const std::uint64_t e = std::max<std::uint64_t>(
        std::bit_cast<std::uint64_t>(top[j]) >> 52, min_exponent);
    g.fast[j] = e + 1 + m <= 2046;  // false for an infinite term too
    if (!g.fast[j]) continue;
    g.sigma[0][j] = std::bit_cast<double>((e + 1 + m) << 52);
    g.sigma[1][j] = std::bit_cast<double>((e + 1 + 2 * m - 53) << 52);
  }
  // Pass 2: both levels.
  PairLevels lo{{load(&g.sigma[0][0]), load(&g.sigma[1][0])}};
  PairLevels hi{{load(&g.sigma[0][2]), load(&g.sigma[1][2])}};
  for (std::size_t k = 0; k < coeff.size(); ++k) {
    const Pair c = {coeff[k], coeff[k]};
    lo.add(c * load(data[k] + i));
    hi.add(c * load(data[k] + i + 2));
  }
  for (std::size_t j = 0; j < kGroup; ++j) {
    const PairLevels& pair = j < 2 ? lo : hi;
    g.level[0][j] = pair.level[0][j % 2];
    g.level[1][j] = pair.level[1][j % 2];
    g.rest[j] = (pair.rest[j % 2] & kMagnitude[0]) != 0;
    // A NaN term makes its q, and so the level sum, NaN.
    g.fast[j] = g.fast[j] && std::isfinite(g.level[0][j]);
  }
  return g;
}

}  // namespace

PartialAggregate::PartialAggregate(SamplingScheme scheme, std::size_t dim)
    : scheme_(scheme),
      dim_(dim),
      weight_(zero_registers(1)),
      registers_(zero_registers(dim)) {}

void PartialAggregate::accumulate(const Contribution& contribution) {
  ColumnFold fold(*this, {&contribution, 1}, 0);
  fold.run(0);
  fold.commit();
}

void PartialAggregate::merge(PartialAggregate&& other) {
  std::vector<PartialAggregate> one;
  one.push_back(std::move(other));
  merge(std::move(one));
}

void PartialAggregate::merge(std::vector<PartialAggregate>&& others) {
  for (const PartialAggregate& other : others) {
    if (other.scheme_ != scheme_ || other.dim_ != dim_) {
      throw std::invalid_argument(
          "PartialAggregate::merge: incompatible partial (scheme or dim)");
    }
  }
  ExactSum scratch;
  scratch.add_register(weight_.data());
  // The coordinate sums that are not all zero, this partial's first.
  std::vector<std::vector<std::uint8_t>*> sums;
  if (!coordinates_zero()) sums.push_back(&registers_);
  for (PartialAggregate& other : others) {
    scratch.add_register(other.weight_.data());
    contributors_ += other.contributors_;
    if (!other.coordinates_zero()) sums.push_back(&other.registers_);
  }
  weight_.clear();
  scratch.append_register(weight_);
  if (sums.size() == 1 && sums.front() != &registers_) {
    registers_ = std::move(*sums.front());
  }
  if (sums.size() <= 1) return;
  // One column pass over every nonzero partial.
  std::vector<const std::uint8_t*> at;
  for (const auto* s : sums) at.push_back(s->data());
  std::vector<std::uint8_t> out;
  RegisterWriter writer(out, dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    scratch.clear();
    for (const std::uint8_t*& p : at) p = scratch.add_register(p);
    writer.put(scratch);
  }
  writer.finish();
  registers_ = std::move(out);
}

bool PartialAggregate::finalize(std::span<double> w) const {
  if (w.size() != dim_) {
    throw std::invalid_argument(
        "PartialAggregate::finalize: model dimension mismatch");
  }
  if (contributors_ == 0) return false;
  const double total = ExactSum::register_value(weight_.data());
  if (scheme_ == SamplingScheme::kUniformThenWeightedAverage && total <= 0.0) {
    throw std::invalid_argument(
        "PartialAggregate::finalize: non-positive sample total under the "
        "weighted-average scheme");
  }
  const std::uint8_t* p = registers_.data();
  for (std::size_t i = 0; i < dim_; ++i) {
    w[i] = ExactSum::register_value(p) / total;
    p += ExactSum::register_size(p);
  }
  return true;
}

PartialAggregate PartialAggregate::restore(SamplingScheme scheme,
                                           std::size_t dim,
                                           std::size_t contributors,
                                           std::vector<std::uint8_t> weight,
                                           std::vector<std::uint8_t> registers) {
  PartialAggregate p(scheme, 0);
  p.dim_ = dim;
  p.contributors_ = contributors;
  p.weight_ = std::move(weight);
  p.registers_ = std::move(registers);
  return p;
}

ColumnFold::ColumnFold(PartialAggregate& target,
                       std::span<const Contribution> batch, std::size_t block)
    : target_(target), block_(block == 0 ? target.dim_ : block) {
  const std::size_t dim = target.dim_;
  for (const Contribution& c : batch) {
    if (c.update->size() != dim) {
      throw std::invalid_argument(
          "PartialAggregate::accumulate: update dimension mismatch");
    }
  }
  if (batch.empty()) return;
  // kUniformThenWeightedAverage weighs each device by n_k; the simple
  // scheme gives every contributor coefficient 1 (divided by the
  // contributor count at finalize). coeff * u[i] is one correctly
  // rounded multiply whose result does not depend on which shard or
  // block performs it — partition-independence starts here.
  const bool weighted =
      target.scheme_ == SamplingScheme::kUniformThenWeightedAverage;
  for (const Contribution& c : batch) {
    coeff_.push_back(weighted ? c.num_samples : 1.0);
    data_.push_back(c.update->data());
  }
  const std::size_t blocks = dim == 0 ? 1 : (dim + block_ - 1) / block_;
  out_.resize(blocks);
  // Byte offset of each block's first stored register: a walk over the
  // register headers.
  offset_.resize(blocks);
  const std::uint8_t* p = target.registers_.data();
  for (std::size_t b = 0; b < blocks; ++b) {
    offset_[b] = static_cast<std::size_t>(p - target.registers_.data());
    for (std::size_t i = 0; b + 1 < blocks && i < block_; ++i) {
      p += ExactSum::register_size(p);
    }
  }
}

void ColumnFold::run(std::size_t block) {
  const std::size_t begin = block * block_;
  const std::size_t end = std::min(target_.dim_, begin + block_);
  const bool has_base = !target_.coordinates_zero();
  const std::uint8_t* base = target_.registers_.data() + offset_[block];
  const std::size_t k_count = coeff_.size();
  RegisterWriter writer(out_[block], end - begin);
  ExactSum scratch;
  const auto start = [&] {
    scratch.clear();
    if (has_base) base = scratch.add_register(base);
  };
  const auto add_each = [&](std::size_t i) {
    for (std::size_t k = 0; k < k_count; ++k) {
      scratch.add(coeff_[k] * data_[k][i]);
    }
  };
  std::size_t i = begin;
  if (k_count >= kExtractMinAddends) {
    // The smallest M with 2^M >= K + 2.
    const auto m = static_cast<unsigned>(std::bit_width(k_count + 1));
    for (; i + kGroup <= end; i += kGroup) {
      const GroupLevels g = extract_group(coeff_, data_, i, m);
      for (std::size_t j = 0; j < kGroup; ++j) {
        start();
        if (!g.fast[j]) {
          add_each(i + j);
        } else {
          scratch.add(g.level[0][j]);
          scratch.add(g.level[1][j]);
          // The rests, recomputed in scalar: the same IEEE operations
          // the lanes ran, so the same bits.
          for (std::size_t k = 0; g.rest[j] && k < k_count; ++k) {
            double p = coeff_[k] * data_[k][i + j];
            extract(g.sigma[0][j], p);
            extract(g.sigma[1][j], p);
            scratch.add(p);
          }
        }
        writer.put(scratch);
      }
    }
  }
  for (; i < end; ++i) {
    start();
    add_each(i);
    writer.put(scratch);
  }
  writer.finish();
}

void ColumnFold::commit() {
  if (out_.empty()) return;
  ExactSum weight;
  weight.add_register(target_.weight_.data());
  for (const double c : coeff_) weight.add(c);
  target_.weight_.clear();
  weight.append_register(target_.weight_);
  target_.contributors_ += coeff_.size();
  if (out_.size() == 1) {
    target_.registers_ = std::move(out_.front());
  } else {
    std::size_t bytes = 0;
    for (const auto& o : out_) bytes += o.size();
    std::vector<std::uint8_t> joined;
    joined.reserve(bytes);
    for (const auto& o : out_) joined.insert(joined.end(), o.begin(), o.end());
    target_.registers_ = std::move(joined);
  }
  out_.clear();
}

}  // namespace fed
