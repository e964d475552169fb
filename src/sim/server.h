// Server-side global evaluation: the metrics every experiment reports
// (training loss f(w) = sum_k p_k F_k(w) and testing accuracy pooled over
// every device's held-out set). Evaluation runs over the full federation,
// parallelized across devices.

#pragma once

#include "data/dataset.h"
#include "nn/module.h"
#include "support/threadpool.h"

namespace fed {

struct GlobalEval {
  double train_loss = 0.0;      // f(w), weighted by p_k = n_k/n
  double train_accuracy = 0.0;  // pooled over all training samples
  double test_accuracy = 0.0;   // pooled over all test samples
};

// `pool` may be nullptr for single-threaded evaluation.
GlobalEval evaluate_global(const Model& model, const FederatedDataset& data,
                           std::span<const double> w, ThreadPool* pool);

}  // namespace fed
