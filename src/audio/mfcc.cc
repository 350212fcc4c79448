#include "audio/mfcc.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/fft.h"
#include "util/hypot.h"
#include "util/lanes.h"

namespace classminer::audio {
namespace {

using util::kLanes;
using util::LoadLanes;

constexpr double kWindowSeconds = 0.030;
constexpr double kHopSeconds = 0.010;  // 20 ms overlap of 30 ms windows
constexpr int kMelFilters = 26;
constexpr double kPreEmphasis = 0.97;
constexpr double kLowHz = 60.0;  // the filterbank spans kLowHz to Nyquist

double HzToMel(double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); }
double MelToHz(double mel) {
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

// One triangular mel filter, stored over its nonzero support only: weight
// k applies to FFT bin `first + k`. Bins outside the support have weight
// zero, and a zero-weight term adds +0.0 to the filter's sum, which is
// exact, so skipping them changes no bit.
struct MelFilter {
  size_t first = 0;
  std::vector<double> weights;
};

// Triangular mel filterbank over FFT bins [0, n_bins).
std::vector<MelFilter> BuildFilterbank(int n_filters, int n_bins,
                                       double bin_hz, double low_hz,
                                       double high_hz) {
  const double low_mel = HzToMel(low_hz);
  const double high_mel = HzToMel(high_hz);
  std::vector<double> centers(static_cast<size_t>(n_filters) + 2);
  for (int i = 0; i < n_filters + 2; ++i) {
    const double mel =
        low_mel + (high_mel - low_mel) * i / (n_filters + 1.0);
    centers[static_cast<size_t>(i)] = MelToHz(mel);
  }
  std::vector<MelFilter> bank(static_cast<size_t>(n_filters));
  std::vector<double> dense(static_cast<size_t>(n_bins));
  for (int m = 0; m < n_filters; ++m) {
    const double lo = centers[static_cast<size_t>(m)];
    const double mid = centers[static_cast<size_t>(m) + 1];
    const double hi = centers[static_cast<size_t>(m) + 2];
    for (int b = 0; b < n_bins; ++b) {
      const double hz = b * bin_hz;
      double w = 0.0;
      if (hz >= lo && hz <= mid && mid > lo) {
        w = (hz - lo) / (mid - lo);
      } else if (hz > mid && hz <= hi && hi > mid) {
        w = (hi - hz) / (hi - mid);
      }
      dense[static_cast<size_t>(b)] = w;
    }
    const auto nonzero = [](double w) { return w != 0.0; };
    const auto first = std::find_if(dense.begin(), dense.end(), nonzero);
    const auto last = std::find_if(dense.rbegin(), dense.rend(), nonzero).base();
    MelFilter& filter = bank[static_cast<size_t>(m)];
    if (first < last) {
      filter.first = static_cast<size_t>(first - dense.begin());
      filter.weights.assign(first, last);
    }
  }
  return bank;
}

}  // namespace

util::Matrix ComputeMfcc(const AudioBuffer& clip) {
  const int sr = clip.sample_rate();
  const size_t win = static_cast<size_t>(std::max(2.0, kWindowSeconds * sr));
  const size_t hop = static_cast<size_t>(std::max(1.0, kHopSeconds * sr));
  const std::vector<float>& s = clip.samples();
  if (s.size() < win) return util::Matrix(0, kMfccDims);

  const util::FftPlan plan(util::NextPowerOfTwo(win));
  const size_t fft_size = plan.size();
  const int n_bins = static_cast<int>(fft_size / 2 + 1);
  const double bin_hz = static_cast<double>(sr) / static_cast<double>(fft_size);
  const std::vector<MelFilter> bank =
      BuildFilterbank(kMelFilters, n_bins, bin_hz, kLowHz, sr / 2.0);

  // Hamming window.
  std::vector<double> hamming(win);
  for (size_t i = 0; i < win; ++i) {
    hamming[i] = 0.54 - 0.46 * std::cos(2.0 * std::numbers::pi * i /
                                        (static_cast<double>(win) - 1.0));
  }

  // DCT-II basis, cosine[k][m], from the expression the per-frame loop
  // used to evaluate.
  const size_t n_mel = static_cast<size_t>(kMelFilters);
  std::vector<double> cosine(kMfccDims * n_mel);
  for (int k = 0; k < kMfccDims; ++k) {
    for (int m = 0; m < kMelFilters; ++m) {
      cosine[static_cast<size_t>(k) * n_mel + static_cast<size_t>(m)] =
          std::cos(std::numbers::pi * k * (m + 0.5) / kMelFilters);
    }
  }

  const size_t n_windows = (s.size() - win) / hop + 1;
  util::Matrix mfcc(n_windows, kMfccDims);

  // Windows are analysed kLanes at a time, one per lane (util/lanes.h),
  // each lane with the operations of a window analysed alone.
  std::vector<double> re(kLanes * fft_size), im(kLanes * fft_size);
  std::vector<double> mag(kLanes * static_cast<size_t>(n_bins));
  std::vector<double> mel_log(kLanes * n_mel);
  for (size_t w = 0; w < n_windows; w += kLanes) {
    const size_t count = std::min(kLanes, n_windows - w);
    // Pre-emphasis + window, laid out [sample][lane]. Spare lanes repeat
    // the last window and their results are dropped.
    for (size_t l = 0; l < kLanes; ++l) {
      const size_t start = (w + std::min(l, count - 1)) * hop;
      for (size_t i = 0; i < win; ++i) {
        const double cur = s[start + i];
        const double prev = (start + i > 0) ? s[start + i - 1] : 0.0;
        re[kLanes * i + l] = (cur - kPreEmphasis * prev) * hamming[i];
      }
    }
    std::fill(re.begin() + static_cast<std::ptrdiff_t>(kLanes * win),
              re.end(), 0.0);
    std::fill(im.begin(), im.end(), 0.0);
    plan.Transform(re, im);
    util::Hypot(std::span(re).first(mag.size()),
                std::span(im).first(mag.size()), mag);

    util::RunLanes([&]<typename V>() __attribute__((always_inline)) {
      for (size_t m = 0; m < n_mel; ++m) {
        const MelFilter& filter = bank[m];
        const double* mb = mag.data() + kLanes * filter.first;
        V acc = {};
        for (size_t j = 0; j < filter.weights.size(); ++j) {
          V x = {};
          LoadLanes(x, mb + kLanes * j);
          acc += filter.weights[j] * x * x;
        }
        for (size_t l = 0; l < kLanes; ++l) {
          mel_log[kLanes * m + l] = std::log(std::max(acc[l], 1e-12));
        }
      }

      // DCT-II of the log mel energies -> cepstral coefficients 0..13.
      for (size_t k = 0; k < kMfccDims; ++k) {
        const double* c = cosine.data() + k * n_mel;
        V acc = {};
        for (size_t m = 0; m < n_mel; ++m) {
          V x = {};
          LoadLanes(x, &mel_log[kLanes * m]);
          acc += x * c[m];
        }
        for (size_t l = 0; l < count; ++l) mfcc.at(w + l, k) = acc[l];
      }
    });
  }
  return mfcc;
}

}  // namespace classminer::audio
