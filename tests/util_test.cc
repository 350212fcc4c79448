#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "util/cpu.h"
#include "util/fft.h"
#include "util/hypot.h"
#include "util/mathutil.h"
#include "util/matrix.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer::util {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

TEST(MathTest, MeanVarianceStdDev) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(v), std::sqrt(1.25));
}

TEST(MathTest, EmptyInputsAreZero) {
  EXPECT_EQ(Mean({}), 0.0);
  EXPECT_EQ(Variance({}), 0.0);
  EXPECT_EQ(Median({}), 0.0);
  EXPECT_EQ(FastEntropyThreshold({}), 0.0);
}

TEST(MathTest, EntropyOfUniformIsLogN) {
  const std::vector<double> w{1.0, 1.0, 1.0, 1.0};
  EXPECT_NEAR(Entropy(w), std::log(4.0), 1e-12);
}

TEST(MathTest, EntropyIgnoresZeros) {
  const std::vector<double> w{0.5, 0.5, 0.0};
  EXPECT_NEAR(Entropy(w), std::log(2.0), 1e-12);
}

TEST(MathTest, FastEntropyThresholdSeparatesBimodal) {
  // Two well-separated populations: threshold must land between them.
  std::vector<double> v;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) v.push_back(rng.Uniform(0.0, 0.1));
  for (int i = 0; i < 40; ++i) v.push_back(rng.Uniform(0.8, 1.0));
  const double t = FastEntropyThreshold(v);
  EXPECT_GT(t, 0.1);
  EXPECT_LT(t, 0.8);
}

TEST(MathTest, FastEntropyThresholdConstantInput) {
  const std::vector<double> v{0.5, 0.5, 0.5};
  EXPECT_DOUBLE_EQ(FastEntropyThreshold(v), 0.5);
}

// The entropy threshold as it was before the per-call p*log(p) table:
// every split scored, one std::log per non-empty bucket per split.
double ReferenceEntropyThreshold(std::span<const double> values, int bins) {
  if (values.empty()) return 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (hi <= lo) return lo;
  if (bins < 2) bins = 2;

  std::vector<double> hist(static_cast<size_t>(bins), 0.0);
  const double width = (hi - lo) / bins;
  for (double v : values) {
    int b = static_cast<int>((v - lo) / width);
    b = std::min(b, bins - 1);
    hist[static_cast<size_t>(b)] += 1.0;
  }

  const double total = static_cast<double>(values.size());
  double best_score = -1.0;
  int best_split = bins / 2;
  for (int s = 0; s < bins - 1; ++s) {
    double mass_a = 0.0, mass_b = 0.0;
    for (int i = 0; i <= s; ++i) mass_a += hist[static_cast<size_t>(i)];
    mass_b = total - mass_a;
    if (mass_a <= 0.0 || mass_b <= 0.0) continue;
    double ha = 0.0, hb = 0.0;
    for (int i = 0; i <= s; ++i) {
      const double c = hist[static_cast<size_t>(i)];
      if (c > 0.0) {
        const double p = c / mass_a;
        ha -= p * std::log(p);
      }
    }
    for (int i = s + 1; i < bins; ++i) {
      const double c = hist[static_cast<size_t>(i)];
      if (c > 0.0) {
        const double p = c / mass_b;
        hb -= p * std::log(p);
      }
    }
    const double score = ha + hb;
    if (score > best_score) {
      best_score = score;
      best_split = s;
    }
  }
  return lo + width * (best_split + 1);
}

// Random windows of 1-64 values drawn from a few distinct levels (many
// duplicates, so buckets hold large counts and many buckets stay empty),
// plus windows of continuous values; bit-identical at 2, 16 and 64 bins.
TEST(MathTest, FastEntropyThresholdMatchesReferenceBitForBit) {
  Rng rng(41);
  for (int t = 0; t < 3000; ++t) {
    const int n = rng.UniformInt(1, 64);
    const int levels = rng.UniformInt(1, 12);
    const double scale = std::pow(10.0, rng.Uniform(-3.0, 3.0));
    std::vector<double> window(static_cast<size_t>(n));
    for (double& v : window) {
      v = t % 4 == 3 ? scale * rng.Uniform()
                     : scale * rng.UniformInt(0, levels - 1) / levels;
    }
    for (const int bins : {2, 16, 64}) {
      const double want = ReferenceEntropyThreshold(window, bins);
      const double got = FastEntropyThreshold(window, bins);
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "window " << t << " of " << n << " values, " << bins
          << " bins: " << got << " vs " << want;
    }
  }
}

TEST(MathTest, PercentileNearestRank) {
  const std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5.0);
}

TEST(MatrixTest, CovarianceOfKnownData) {
  // Two variables, perfectly correlated.
  Matrix samples(3, 2);
  samples.at(0, 0) = 1.0; samples.at(0, 1) = 2.0;
  samples.at(1, 0) = 2.0; samples.at(1, 1) = 4.0;
  samples.at(2, 0) = 3.0; samples.at(2, 1) = 6.0;
  const Matrix cov = Covariance(samples);
  EXPECT_NEAR(cov.at(0, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov.at(1, 1), 8.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov.at(0, 1), 4.0 / 3.0, 1e-12);
  EXPECT_NEAR(cov.at(0, 1), cov.at(1, 0), 1e-12);
}

TEST(MatrixTest, CholeskyReconstructs) {
  Matrix a(2, 2);
  a.at(0, 0) = 4.0; a.at(0, 1) = 2.0;
  a.at(1, 0) = 2.0; a.at(1, 1) = 3.0;
  StatusOr<Matrix> l = Cholesky(a);
  ASSERT_TRUE(l.ok());
  for (size_t r = 0; r < 2; ++r) {
    for (size_t c = 0; c < 2; ++c) {
      double rec = 0.0;  // (L L^T)[r][c]
      for (size_t k = 0; k < 2; ++k) rec += l->at(r, k) * l->at(c, k);
      EXPECT_NEAR(rec, a.at(r, c), 1e-12);
    }
  }
}

TEST(MatrixTest, CholeskyRejectsIndefinite) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0; a.at(0, 1) = 5.0;
  a.at(1, 0) = 5.0; a.at(1, 1) = 1.0;
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(MatrixTest, LogDetOfDiagonal) {
  Matrix a(3, 3);
  a.at(0, 0) = 2.0;
  a.at(1, 1) = 3.0;
  a.at(2, 2) = 4.0;
  EXPECT_NEAR(LogDetPsd(a), std::log(24.0), 1e-9);
}

TEST(MatrixTest, LogDetRegularisesSingular) {
  Matrix a(2, 2);  // rank 1
  a.at(0, 0) = 1.0; a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0; a.at(1, 1) = 1.0;
  const double ld = LogDetPsd(a);
  EXPECT_TRUE(std::isfinite(ld));
  EXPECT_LT(ld, 0.0);  // tiny determinant
}

// Four signals in the plan's [n][lane] layout. The inverse transform is
// the forward one applied to the conjugate: conj(FFT(conj(X))) / n.
TEST(FftTest, InverseRecoversSignal) {
  constexpr size_t n = 64;
  Rng rng(7);
  std::vector<double> re(kLanes * n), im(kLanes * n);
  for (size_t i = 0; i < re.size(); ++i) {
    re[i] = rng.Gaussian();
    im[i] = rng.Gaussian();
  }
  const std::vector<double> orig_re = re, orig_im = im;
  const FftPlan plan(n);
  plan.Transform(re, im);
  for (double& v : im) v = -v;
  plan.Transform(re, im);
  for (size_t i = 0; i < re.size(); ++i) {
    EXPECT_NEAR(re[i] / n, orig_re[i], 1e-9) << i;
    EXPECT_NEAR(-im[i] / n, orig_im[i], 1e-9) << i;
  }
}

TEST(FftTest, PureToneConcentratesEnergy) {
  constexpr size_t n = 256;
  constexpr size_t tone[kLanes] = {16, 3, 40, 100};
  std::vector<double> re(kLanes * n), im(kLanes * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t l = 0; l < kLanes; ++l) {
      re[kLanes * i + l] =
          std::sin(2.0 * M_PI * static_cast<double>(tone[l] * i) / n);
    }
  }
  FftPlan(n).Transform(re, im);
  for (size_t l = 0; l < kLanes; ++l) {
    size_t peak = 0;
    double peak_mag = 0.0;
    for (size_t i = 0; i <= n / 2; ++i) {
      const double mag = std::hypot(re[kLanes * i + l], im[kLanes * i + l]);
      if (mag > peak_mag) {
        peak = i;
        peak_mag = mag;
      }
    }
    EXPECT_EQ(peak, tone[l]) << "lane " << l;
  }
}

// util::Hypot must equal std::hypot bit for bit at every dispatch level.
// Its AVX2 lanes copy glibc's (>= 2.35) hypot on x86-64, so this sweep
// pins that copy to the C library it runs against: a glibc whose hypot
// rounds differently fails here, not in a mined output.
TEST(HypotTest, MatchesStdHypotBitForBitAtEveryLevel) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMinSub = std::numeric_limits<double>::denorm_min();
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr size_t kChunk = size_t{1} << 20;
  Rng rng(2035);
  const auto sign = [&rng] { return rng.Bernoulli(0.5) ? -1.0 : 1.0; };
  const auto mantissa = [&rng] { return rng.Uniform(1.0, 2.0); };

  // Ten chunks of 2^20 random pairs, two of each kind, and one chunk of
  // every pair of special values.
  std::vector<std::vector<double>> xs, ys;
  std::vector<std::string> kinds;
  for (int round = 0; round < 2; ++round) {
    for (const int range : {1100, 30}) {
      std::vector<double> x(kChunk), y(kChunk);
      for (size_t i = 0; i < kChunk; ++i) {
        x[i] = sign() * std::ldexp(mantissa(), rng.UniformInt(-range, range));
        y[i] = sign() * std::ldexp(mantissa(), rng.UniformInt(-range, range));
      }
      xs.push_back(std::move(x));
      ys.push_back(std::move(y));
      kinds.push_back("exponents in +-" + std::to_string(range));
    }
    std::vector<double> x(kChunk), y(kChunk);
    for (size_t i = 0; i < kChunk; ++i) {  // b = a * u
      x[i] = sign() * std::ldexp(mantissa(), rng.UniformInt(-1100, 1100));
      y[i] = x[i] * rng.Uniform(-1.0, 1.0);
    }
    xs.push_back(std::move(x));
    ys.push_back(std::move(y));
    kinds.push_back("b = a * u");
    x.assign(kChunk, 0.0);
    y.assign(kChunk, 0.0);
    for (size_t i = 0; i < kChunk; ++i) {  // ay near ax * 2^-54
      x[i] = sign() * std::ldexp(mantissa(), rng.UniformInt(-400, 400));
      y[i] = sign() * x[i] * std::ldexp(mantissa(), rng.UniformInt(-56, -52));
    }
    xs.push_back(std::move(x));
    ys.push_back(std::move(y));
    kinds.push_back("ay near ax * 2^-54");
    x.assign(kChunk, 0.0);
    y.assign(kChunk, 0.0);
    for (size_t i = 0; i < kChunk; ++i) {  // both near 2^+-500 .. 2^+-511
      const int e = (rng.Bernoulli(0.5) ? 1 : -1) * rng.UniformInt(495, 515);
      x[i] = sign() * std::ldexp(mantissa(), e);
      y[i] = sign() * std::ldexp(mantissa(), e + rng.UniformInt(-2, 2));
    }
    xs.push_back(std::move(x));
    ys.push_back(std::move(y));
    kinds.push_back("exponents near the scaling bounds");
  }
  std::vector<double> specials = {
      0.0, kMinSub, 3 * kMinSub, kMinNormal / 3, kMinNormal,
      0x1p-511, 0x1.0000000000001p-511, 0x1p-500, 0x1.fffffffffffffp-501,
      0x1p-54, 1.0, 0x1p500, 0x1.0000000000001p500, 0x1p511, 0x1p512,
      kMax, kInf, kNan, -0x1.4eab341e636dp-511, -0x1.67a49c7c7615fp-511};
  for (size_t i = 0, n = specials.size(); i < n; ++i) {
    specials.push_back(-specials[i]);
  }
  std::vector<double> x, y;
  for (const double a : specials) {
    for (const double b : specials) {
      x.push_back(a);
      y.push_back(b);
    }
  }
  x.push_back(3.0);  // an odd length runs the kernel's tail
  y.push_back(4.0);
  xs.push_back(std::move(x));
  ys.push_back(std::move(y));
  kinds.push_back("special values");

  size_t total = 0;
  for (const std::vector<double>& v : xs) total += v.size();
  ASSERT_GE(total, size_t{10'000'000});
  for (const DispatchLevel level : SupportedDispatchLevels()) {
    ASSERT_TRUE(SetDispatchLevelForTest(level));
    for (size_t c = 0; c < xs.size(); ++c) {
      std::vector<double> out(xs[c].size());
      Hypot(xs[c], ys[c], out);
      size_t mismatches = 0;
      for (size_t i = 0; i < out.size(); ++i) {
        const double want = std::hypot(xs[c][i], ys[c][i]);
        if (std::bit_cast<uint64_t>(out[i]) == std::bit_cast<uint64_t>(want)) {
          continue;
        }
        if (++mismatches <= 3) {
          ADD_FAILURE() << DispatchLevelName(level) << " " << kinds[c]
                        << ": hypot(" << std::hexfloat << xs[c][i] << ", "
                        << ys[c][i] << ") = " << out[i] << ", want " << want;
        }
      }
      EXPECT_EQ(mismatches, 0u) << DispatchLevelName(level) << " " << kinds[c];
    }
  }
  ClearDispatchLevelForTest();
}

TEST(FftTest, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng rng(2);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    saw_lo |= v == 3;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(SerialTest, RoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(0xab);
  w.PutU16(0x1234);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutI32(-77);
  w.PutF64(3.14159);
  w.PutString("hello");

  ByteReader r(w.bytes());
  EXPECT_EQ(*r.GetU8(), 0xab);
  EXPECT_EQ(*r.GetU16(), 0x1234);
  EXPECT_EQ(*r.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(*r.GetU64(), 0x0123456789abcdefULL);
  EXPECT_EQ(*r.GetI32(), -77);
  EXPECT_DOUBLE_EQ(*r.GetF64(), 3.14159);
  EXPECT_EQ(*r.GetString(), "hello");
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(SerialTest, ReadPastEndIsDataLoss) {
  ByteWriter w;
  w.PutU8(1);
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.GetU8().ok());
  StatusOr<uint32_t> v = r.GetU32();
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kDataLoss);
}

TEST(SerialTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/serial_test.bin";
  const std::vector<uint8_t> bytes{1, 2, 3, 250};
  ASSERT_TRUE(WriteFile(path, bytes).ok());
  StatusOr<std::vector<uint8_t>> read = ReadFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, bytes);
}

TEST(SerialTest, MissingFileIsNotFound) {
  StatusOr<std::vector<uint8_t>> read = ReadFile("/nonexistent/path/x.bin");
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(SerialTest, CheckU32CountGuardsNarrowing) {
  // Everything a u32 length prefix can hold passes...
  EXPECT_TRUE(CheckU32Count(0, "shot").ok());
  EXPECT_TRUE(CheckU32Count(0xffffffffull, "shot").ok());
  // ...and the first value a bare static_cast<uint32_t> would silently
  // truncate (to 0) is refused before any byte is written.
  const Status overflow = CheckU32Count(0x100000000ull, "videos[3] shot");
  EXPECT_EQ(overflow.code(), StatusCode::kInvalidArgument);
  // The message names the offending field so the caller can find it.
  EXPECT_NE(overflow.message().find("videos[3] shot"), std::string::npos);
  EXPECT_FALSE(CheckU32Count(SIZE_MAX, "frame").ok());
}

}  // namespace
}  // namespace classminer::util
