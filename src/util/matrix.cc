#include "util/matrix.h"

#include <cmath>

#include "util/logging.h"

namespace classminer::util {

Matrix Covariance(const Matrix& samples) {
  const size_t n = samples.rows();
  const size_t d = samples.cols();
  Matrix cov(d, d);
  if (n == 0) return cov;

  std::vector<double> mean(d, 0.0);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < d; ++c) mean[c] += samples.at(r, c);
  }
  for (size_t c = 0; c < d; ++c) mean[c] /= static_cast<double>(n);

  for (size_t r = 0; r < n; ++r) {
    for (size_t i = 0; i < d; ++i) {
      const double di = samples.at(r, i) - mean[i];
      for (size_t j = i; j < d; ++j) {
        cov.at(i, j) += di * (samples.at(r, j) - mean[j]);
      }
    }
  }
  for (size_t i = 0; i < d; ++i) {
    for (size_t j = i; j < d; ++j) {
      cov.at(i, j) /= static_cast<double>(n);
      cov.at(j, i) = cov.at(i, j);
    }
  }
  return cov;
}

StatusOr<Matrix> Cholesky(const Matrix& a) {
  if (a.rows() != a.cols()) {
    return Status::InvalidArgument("Cholesky requires a square matrix");
  }
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      double sum = a.at(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l.at(i, k) * l.at(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          return Status::FailedPrecondition(
              "matrix is not positive definite");
        }
        l.at(i, i) = std::sqrt(sum);
      } else {
        l.at(i, j) = sum / l.at(j, j);
      }
    }
  }
  return l;
}

double LogDetPsd(const Matrix& a, double regularizer) {
  CM_CHECK(a.rows() == a.cols()) << "LogDetPsd requires a square matrix";
  Matrix work = a;
  // Retry with a geometrically growing ridge until Cholesky succeeds; short
  // feature sequences routinely produce rank-deficient covariances.
  double ridge = 0.0;
  for (int attempt = 0; attempt < 40; ++attempt) {
    StatusOr<Matrix> chol = Cholesky(work);
    if (chol.ok()) {
      double logdet = 0.0;
      for (size_t i = 0; i < work.rows(); ++i) {
        logdet += 2.0 * std::log(chol->at(i, i));
      }
      return logdet;
    }
    ridge = (ridge == 0.0) ? regularizer : ridge * 10.0;
    work = a;
    for (size_t i = 0; i < work.rows(); ++i) work.at(i, i) += ridge;
  }
  CM_CHECK(false) << "LogDetPsd failed to regularise matrix";
  return 0.0;
}

}  // namespace classminer::util
