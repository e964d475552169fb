#include "nn/batch.h"

namespace fed {

MatrixView shape(Vector& buf, std::size_t rows, std::size_t cols) {
  if (buf.size() < rows * cols) buf.resize(rows * cols);
  return {std::span<double>(buf).first(rows * cols), rows, cols};
}

DenseScratch& dense_scratch() {
  thread_local DenseScratch scratch;
  return scratch;
}

ConstMatrixView row_range(const ConstMatrixView& m, std::size_t begin,
                          std::size_t count) {
  return {{m.data() + begin * m.cols(), count * m.cols()}, count, m.cols()};
}

MatrixView gather_columns(const Matrix& features,
                          std::span<const std::size_t> chunk, Vector& buf) {
  MatrixView x_t = shape(buf, features.cols(), chunk.size());
  // Eight samples at a time: eight sequential read streams, and one
  // cache line of x_t written per feature.
  constexpr std::size_t kBlock = 8;
  for (std::size_t i0 = 0; i0 < chunk.size(); i0 += kBlock) {
    const std::size_t width = std::min(kBlock, chunk.size() - i0);
    const double* rows[kBlock];
    for (std::size_t i = 0; i < width; ++i) {
      rows[i] = features.row(chunk[i0 + i]).data();
    }
    for (std::size_t p = 0; p < x_t.rows(); ++p) {
      double* out = x_t.row(p).data() + i0;
      for (std::size_t i = 0; i < width; ++i) out[i] = rows[i][p];
    }
  }
  return x_t;
}

MatrixView gather_rows(const Matrix& features,
                       std::span<const std::size_t> chunk, Vector& buf) {
  MatrixView x = shape(buf, chunk.size(), features.cols());
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    copy(features.row(chunk[i]), x.row(i));
  }
  return x;
}

ConstMatrixView chunk_rows(const Matrix& features,
                           std::span<const std::size_t> chunk, Vector& buf) {
  for (std::size_t i = 1; i < chunk.size(); ++i) {
    if (chunk[i] != chunk[0] + i) return gather_rows(features, chunk, buf);
  }
  return row_range(features, chunk.empty() ? 0 : chunk[0], chunk.size());
}

MatrixView add_bias_transposed(const ConstMatrixView& product,
                               std::span<const double> bias, Vector& buf) {
  MatrixView logits = shape(buf, product.cols(), product.rows());
  for (std::size_t i = 0; i < product.cols(); ++i) {
    for (std::size_t c = 0; c < product.rows(); ++c) {
      logits(i, c) = product(c, i) + bias[c];
    }
  }
  return logits;
}

void softmax_grad_rows(const Dataset& data, std::span<const std::size_t> chunk,
                       MatrixView logits, std::span<double> grad_bias,
                       double& total) {
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    const auto row = logits.row(i);
    total += softmax_cross_entropy_grad(row, data.labels[chunk[i]]);
    add(grad_bias, row, grad_bias);
  }
}

}  // namespace fed
