#include "sim/aggregate.h"

#include <algorithm>
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
  for (std::size_t i = begin; i < end; ++i) {
    scratch.clear();
    if (has_base) base = scratch.add_register(base);
    for (std::size_t k = 0; k < k_count; ++k) {
      scratch.add(coeff_[k] * data_[k][i]);
    }
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
