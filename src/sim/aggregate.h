// Server-side aggregation of local updates, as mergeable partial sums.
//
// FedProx's server step (Algorithm 2) is a weighted average — an
// associative reduction — so it does not have to happen in one place.
// PartialAggregate is the unit of that reduction: a sub-aggregator
// accumulate()s the contributions of the devices it owns, partials
// merge() into bigger partials, and the root finalize()s the fully
// merged sum into the next global model. Every coordinate (and the
// weight total) is an exact sum (tensor/exact_sum.h), so merge is
// *exactly* associative and commutative: any shard topology, merge
// order, block split or thread count produces bit-identical results —
// hierarchical sharded aggregation cannot change the math.
//
//   PartialAggregate shard(scheme, dim);   // one per aggregator shard
//   shard.accumulate(c);                   // or a batch via ColumnFold
//   root.merge(std::move(shard));          // sub-aggregator -> root
//   bool updated = root.finalize(w);       // false: nobody contributed
//
// Storage is the canonical register form of ExactSum: one trimmed window
// per coordinate, packed back to back (about 14 bytes for a typical
// coordinate, against 288 for a dense fixed-point register). The wire
// codec (support/serialize.h) ships those bytes as they are. Sums are
// built column-wise: for each coordinate, the stored window and the
// batch's terms coeff_k * u_k[i] go through one L1-resident scratch
// ExactSum, and the canonical window is written back. ColumnFold splits
// that work into coordinate blocks that can run on a thread pool.
//
// A batch of at least five terms per coordinate does not reach the
// scratch register term by term. ColumnFold first splits the terms with
// Rump-Ogita-Oishi's error-free extraction, four coordinates at a time in
// SIMD double lanes, into two level sums that are exact as doubles, and
// adds those; only bits below both levels (a column with 1 beside
// 2^-120, say) and lanes holding inf/NaN or terms near 2^1023 go in one
// term at a time. The exact sum is the same, so the stored bytes are too.
//
// Weighting follows the sampling scheme (see sim/sampling.h):
//   kUniformThenWeightedAverage  -> weights proportional to n_k
//   kWeightedThenSimpleAverage   -> equal weights 1/|contributions|
// finalize returns false (leaving w untouched) when no device
// contributed — the paper's FedAvg keeps the previous model when every
// selected device straggles and is dropped.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/sampling.h"
#include "tensor/exact_sum.h"
#include "tensor/tensor.h"

namespace fed {

struct Contribution {
  std::size_t device = 0;
  const Vector* update = nullptr;  // the device's local solution w_k^{t+1}
  double num_samples = 0.0;        // n_k, used by the weighted scheme
};

class PartialAggregate {
 public:
  PartialAggregate(SamplingScheme scheme, std::size_t dim);

  // Folds one device's contribution in, eagerly: the update is read
  // during the call and no reference to it is kept. Throws
  // std::invalid_argument on a dimension mismatch. Batches fold through
  // ColumnFold.
  void accumulate(const Contribution& contribution);

  // Absorbs another partial covering a disjoint device set. Exactly
  // associative and commutative. Throws std::invalid_argument when the
  // scheme or dimension disagrees.
  void merge(PartialAggregate&& other);
  // The same for many partials at once, in one column pass (the root's
  // merge of every shard).
  void merge(std::vector<PartialAggregate>&& others);

  // Writes the weighted average into `w` and returns true, or returns
  // false leaving `w` untouched when no contribution was accumulated.
  // Throws std::invalid_argument on a dimension mismatch, or when the
  // weighted scheme's sample total is not positive.
  bool finalize(std::span<double> w) const;

  SamplingScheme scheme() const { return scheme_; }
  std::size_t dim() const { return dim_; }
  std::size_t contributors() const { return contributors_; }

  // Raw state, for the FPS2 wire codec (support/serialize.h): the weight
  // total's canonical register, and dim() coordinate registers back to
  // back.
  std::span<const std::uint8_t> weight_register() const { return weight_; }
  std::span<const std::uint8_t> coordinate_registers() const {
    return registers_;
  }
  // Rebuilds a partial from validated canonical registers (the decoder
  // checks them with ExactSum::check_register).
  static PartialAggregate restore(SamplingScheme scheme, std::size_t dim,
                                  std::size_t contributors,
                                  std::vector<std::uint8_t> weight,
                                  std::vector<std::uint8_t> registers);

 private:
  friend class ColumnFold;

  // True while every coordinate is an exact zero (two bytes each).
  bool coordinates_zero() const {
    return registers_.size() == dim_ * ExactSum::register_bytes(0);
  }

  SamplingScheme scheme_;
  std::size_t dim_;
  std::size_t contributors_ = 0;
  std::vector<std::uint8_t> weight_;     // sum of the coefficients
  std::vector<std::uint8_t> registers_;  // per-coordinate sum of coeff * u
};

// A batch fold into a PartialAggregate, split into independent blocks of
// coordinates so the blocks can run concurrently (sim/sharded.h runs
// them on the round's pool). The sums are exact, so the block split
// cannot change a bit of the result.
//
//   ColumnFold fold(target, batch, block);
//   for (std::size_t b = 0; b < fold.blocks(); ++b) fold.run(b);
//   fold.commit();
//
// The batch's updates are read by run(), so they — and `target` — must
// outlive it.
class ColumnFold {
 public:
  // Throws std::invalid_argument on a dimension mismatch. `block` is the
  // number of coordinates per block (0 means one block).
  ColumnFold(PartialAggregate& target, std::span<const Contribution> batch,
             std::size_t block);

  // 0 for an empty batch (commit() is then a no-op).
  std::size_t blocks() const { return out_.size(); }

  // Folds the batch into block `block`'s coordinates. Distinct blocks
  // may run concurrently; each runs once.
  void run(std::size_t block);

  // Writes every block back into the target, in coordinate order, and
  // adds the batch's weights and contributor count. Call once, after
  // every block ran.
  void commit();

 private:
  PartialAggregate& target_;
  std::size_t block_;
  std::vector<double> coeff_;                  // per contribution
  std::vector<const double*> data_;            // per contribution
  std::vector<std::size_t> offset_;            // target bytes per block
  std::vector<std::vector<std::uint8_t>> out_;  // folded registers
};

}  // namespace fed
