#include "optim/solver.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace fed {

std::size_t iterations_for_epochs(std::size_t epochs, std::size_t n,
                                  std::size_t batch_size) {
  if (batch_size == 0) throw std::invalid_argument("batch_size must be > 0");
  const std::size_t per_epoch = (n + batch_size - 1) / batch_size;
  return epochs * per_epoch;
}

Minibatches::Minibatches(std::size_t n, std::size_t batch_size, Rng& rng)
    : order_(n), batch_size_(batch_size), rng_(rng), cursor_(n) {
  std::iota(order_.begin(), order_.end(), 0);
}

std::span<const std::size_t> Minibatches::next() {
  if (cursor_ >= order_.size()) {
    rng_.shuffle(order_);
    cursor_ = 0;
  }
  const std::size_t take = std::min(batch_size_, order_.size() - cursor_);
  const std::span<const std::size_t> batch(order_.data() + cursor_, take);
  cursor_ += take;
  return batch;
}

}  // namespace fed
