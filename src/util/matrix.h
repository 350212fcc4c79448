#ifndef CLASSMINER_UTIL_MATRIX_H_
#define CLASSMINER_UTIL_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/status.h"

namespace classminer::util {

// Small dense row-major matrix of doubles. Sized for feature-space work
// (tens of dimensions), not BLAS-scale linear algebra.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  double& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  std::span<const double> row(size_t r) const {
    return std::span<const double>(data_.data() + r * cols_, cols_);
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ && a.data_ == b.data_;
  }

 private:
  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

// Sample covariance matrix (maximum-likelihood, divides by n) of row vectors
// in `samples` (n x d). Returns a d x d matrix; zero matrix when n == 0.
Matrix Covariance(const Matrix& samples);

// log |A| of a symmetric positive semi-definite matrix via Cholesky with a
// small diagonal regulariser (added when needed). Used by the BIC test where
// near-singular covariances arise from short audio clips.
double LogDetPsd(const Matrix& a, double regularizer = 1e-9);

// In-place Cholesky factorisation (lower triangular) of a symmetric
// positive definite matrix. Returns kFailedPrecondition when a pivot is
// non-positive.
StatusOr<Matrix> Cholesky(const Matrix& a);

}  // namespace classminer::util

#endif  // CLASSMINER_UTIL_MATRIX_H_
