// Dense row-major matrix/vector types used throughout the library.
//
// Models expose their parameters as one flat std::vector<double> (see
// nn/module.h); Matrix is used for data (one sample per row) and for
// structured views over weight blocks during forward/backward passes.

#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace fed {

using Vector = std::vector<double>;

// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  // Takes ownership of a flat row-major buffer. data.size() must equal
  // rows*cols.
  Matrix(std::size_t rows, std::size_t cols, Vector data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  Vector& storage() { return data_; }
  const Vector& storage() const { return data_; }

  void fill(double v) { data_.assign(data_.size(), v); }

  bool operator==(const Matrix& other) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Vector data_;
};

// A mutable view over a contiguous block of a flat parameter vector,
// interpreted as a rows x cols row-major matrix. Used by models to
// address weight blocks inside their flat parameter storage.
class MatrixView {
 public:
  MatrixView(std::span<double> data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {
    assert(data.size() == rows * cols);
  }
  // A view of a whole Matrix.
  MatrixView(Matrix& m) : MatrixView(m.storage(), m.rows(), m.cols()) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) {
    assert(r < rows_);
    return data_.subspan(r * cols_, cols_);
  }
  std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return data_.subspan(r * cols_, cols_);
  }

  std::span<double> flat() { return data_; }
  double* data() const { return data_.data(); }

 private:
  std::span<double> data_;
  std::size_t rows_;
  std::size_t cols_;
};

class ConstMatrixView {
 public:
  ConstMatrixView(std::span<const double> data, std::size_t rows,
                  std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {
    assert(data.size() == rows * cols);
  }
  // Read-only views of a whole Matrix or of a mutable view.
  ConstMatrixView(const Matrix& m)
      : ConstMatrixView(m.storage(), m.rows(), m.cols()) {}
  ConstMatrixView(const MatrixView& m)
      : ConstMatrixView({m.data(), m.rows() * m.cols()}, m.rows(), m.cols()) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<const double> row(std::size_t r) const {
    assert(r < rows_);
    return data_.subspan(r * cols_, cols_);
  }

  const double* data() const { return data_.data(); }

 private:
  std::span<const double> data_;
  std::size_t rows_;
  std::size_t cols_;
};

}  // namespace fed
