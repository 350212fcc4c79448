#include "audio/features.h"

#include <algorithm>
#include <cmath>
#include <complex>

#include "util/cpu.h"
#include "util/fft.h"
#include "util/logging.h"
#include "util/mathutil.h"

namespace classminer::audio {
namespace internal {

size_t AutocorrOutputSize(int min_lag, int max_lag) {
  const size_t lags = static_cast<size_t>(max_lag - min_lag + 1);
  const size_t block = static_cast<size_t>(kAutocorrLagBlock);
  return (lags + block - 1) / block * block;
}

void AutocorrelationScalar(std::span<const double> x, size_t n, int min_lag,
                           int max_lag, std::span<double> r) {
  // Eight lanes in named locals so they stay in registers; each lane's sum
  // is still one sequential chain in ascending i.
  static_assert(kAutocorrLagBlock % 8 == 0);
  for (int lag = min_lag; lag <= max_lag; lag += 8) {
    const double* y = x.data() + lag;
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    double a4 = 0.0, a5 = 0.0, a6 = 0.0, a7 = 0.0;
    for (size_t i = 0; i + static_cast<size_t>(lag) < n; ++i) {
      const double xi = x[i];
      const double* p = y + i;
      a0 += xi * p[0];
      a1 += xi * p[1];
      a2 += xi * p[2];
      a3 += xi * p[3];
      a4 += xi * p[4];
      a5 += xi * p[5];
      a6 += xi * p[6];
      a7 += xi * p[7];
    }
    double* out = r.data() + (lag - min_lag);
    out[0] = a0;
    out[1] = a1;
    out[2] = a2;
    out[3] = a3;
    out[4] = a4;
    out[5] = a5;
    out[6] = a6;
    out[7] = a7;
  }
}

namespace {

inline bool UseAutocorrelationAccel() {
  return util::ActiveDispatchLevel() >= util::DispatchLevel::kAvx2 &&
         AutocorrelationAccelAvailable();
}

}  // namespace

void Autocorrelation(std::span<const double> x, size_t n, int min_lag,
                     int max_lag, std::span<double> r) {
  CM_CHECK(min_lag >= 1 && min_lag <= max_lag &&
           static_cast<size_t>(max_lag) < n)
      << "autocorrelation lags out of range";
  CM_CHECK(x.size() >= n + kAutocorrPadding &&
           r.size() >= AutocorrOutputSize(min_lag, max_lag))
      << "autocorrelation scratch too small";
  if (UseAutocorrelationAccel()) {
    AutocorrelationAccel(x, n, min_lag, max_lag, r);
  } else {
    AutocorrelationScalar(x, n, min_lag, max_lag, r);
  }
}

}  // namespace internal

namespace {

// Per-clip scratch and tables, sized from the frame once so the per-frame
// analysis allocates nothing.
class FrameAnalyzer {
 public:
  FrameAnalyzer(size_t frame_len, int sample_rate)
      : frame_len_(frame_len),
        sample_rate_(sample_rate),
        min_lag_(sample_rate / 500),
        max_lag_(sample_rate / 60),
        pitch_ok_(frame_len > static_cast<size_t>(max_lag_) && min_lag_ >= 1),
        spectral_ok_(frame_len >= 8),
        plan_(util::NextPowerOfTwo(std::max<size_t>(frame_len, 2))),
        n_bins_(plan_.size() / 2 + 1),
        nyquist_(sample_rate / 2.0),
        bin_hz_(nyquist_ / (static_cast<double>(n_bins_) - 1.0)) {
    if (pitch_ok_) {
      x_.assign(frame_len + internal::kAutocorrPadding, 0.0);
      r_.resize(internal::AutocorrOutputSize(min_lag_, max_lag_));
    }
    if (spectral_ok_) {
      re_.resize(plan_.size());
      im_.resize(plan_.size());
      power_.resize(n_bins_);
      // Each bin's subband, decided by the same comparisons the per-frame
      // loop used to make; -1 when no band takes it.
      constexpr double kEdges[5] = {0.0, 630.0, 1720.0, 4400.0, 1e9};
      band_.assign(n_bins_, -1);
      for (size_t i = 0; i < n_bins_; ++i) {
        const double hz = static_cast<double>(i) * bin_hz_;
        for (int b = 0; b < 4; ++b) {
          if (hz >= kEdges[b] && hz < std::min(kEdges[b + 1], nyquist_ + 1.0)) {
            band_[i] = b;
            break;
          }
        }
      }
    }
  }

  // Sum of squares, shared by the RMS volume and the pitch voicing gate.
  static double Energy(std::span<const float> frame) {
    double acc = 0.0;
    for (float s : frame) acc += static_cast<double>(s) * s;
    return acc;
  }

  // Autocorrelation pitch in [60, 500] Hz; 0 when unvoiced.
  double Pitch(std::span<const float> frame, double energy) {
    if (!pitch_ok_) return 0.0;
    if (energy < 1e-9) return 0.0;
    std::copy(frame.begin(), frame.end(), x_.begin());
    internal::Autocorrelation(x_, frame_len_, min_lag_, max_lag_, r_);

    double best = 0.0;
    int best_lag = 0;
    for (int lag = min_lag_; lag <= max_lag_; ++lag) {
      const double acc = r_[static_cast<size_t>(lag - min_lag_)];
      if (acc > best) {
        best = acc;
        best_lag = lag;
      }
    }
    // Voicing gate: the autocorrelation peak must carry a meaningful share
    // of the energy.
    if (best_lag == 0 || best < 0.25 * energy) return 0.0;
    return static_cast<double>(sample_rate_) / best_lag;
  }

  struct SpectralStats {
    double centroid = 0.0;   // normalised to [0, 1] of Nyquist
    double bandwidth = 0.0;  // normalised
    std::array<double, 4> subband{};  // energy ratios
  };

  SpectralStats Spectral(std::span<const float> frame) {
    SpectralStats stats;
    if (!spectral_ok_) return stats;
    std::copy(frame.begin(), frame.end(), re_.begin());
    std::fill(re_.begin() + static_cast<std::ptrdiff_t>(frame.size()),
              re_.end(), 0.0);
    std::fill(im_.begin(), im_.end(), 0.0);
    plan_.Transform(re_, im_);

    double total = 0.0, weighted = 0.0;
    std::array<double, 4> subband{};
    for (size_t i = 0; i < n_bins_; ++i) {
      const double mag = std::abs(std::complex<double>(re_[i], im_[i]));
      const double e = mag * mag;
      power_[i] = e;
      total += e;
      weighted += e * (static_cast<double>(i) * bin_hz_);
      if (band_[i] >= 0) subband[static_cast<size_t>(band_[i])] += e;
    }
    if (total < 1e-12) return stats;
    const double centroid_hz = weighted / total;
    stats.centroid = centroid_hz / nyquist_;

    double spread = 0.0;
    for (size_t i = 0; i < n_bins_; ++i) {
      const double d = static_cast<double>(i) * bin_hz_ - centroid_hz;
      spread += power_[i] * d * d;
    }
    stats.bandwidth = std::sqrt(spread / total) / nyquist_;
    for (size_t b = 0; b < 4; ++b) stats.subband[b] = subband[b] / total;
    return stats;
  }

 private:
  const size_t frame_len_;
  const int sample_rate_;
  const int min_lag_;
  const int max_lag_;
  const bool pitch_ok_;
  const bool spectral_ok_;
  const util::FftPlan plan_;
  const size_t n_bins_;
  const double nyquist_;
  const double bin_hz_;
  std::vector<double> x_;      // frame widened to double + zero padding
  std::vector<double> r_;      // autocorrelation per lag
  std::vector<double> re_;     // FFT buffers
  std::vector<double> im_;
  std::vector<double> power_;  // |X[i]|^2 per bin
  std::vector<int> band_;      // subband per bin, -1 for none
};

double FrameZcr(std::span<const float> frame) {
  if (frame.size() < 2) return 0.0;
  int crossings = 0;
  for (size_t i = 1; i < frame.size(); ++i) {
    if ((frame[i - 1] >= 0.0f) != (frame[i] >= 0.0f)) ++crossings;
  }
  return static_cast<double>(crossings) /
         static_cast<double>(frame.size() - 1);
}

}  // namespace

ClipFeatures ComputeClipFeatures(const AudioBuffer& clip,
                                 const ClipFeatureOptions& options) {
  ClipFeatures f{};
  const int sr = clip.sample_rate();
  const size_t frame_len =
      static_cast<size_t>(std::max(1.0, options.frame_seconds * sr));
  const size_t hop = static_cast<size_t>(std::max(1.0, options.hop_seconds * sr));
  if (clip.sample_count() < frame_len) return f;

  FrameAnalyzer analyzer(frame_len, sr);
  std::vector<double> volumes, zcrs, pitches, centroids, bandwidths;
  std::array<double, 4> subband_acc{};
  size_t spectral_frames = 0;

  const std::vector<float>& s = clip.samples();
  for (size_t start = 0; start + frame_len <= s.size(); start += hop) {
    std::span<const float> frame(s.data() + start, frame_len);
    const double energy = FrameAnalyzer::Energy(frame);
    volumes.push_back(std::sqrt(energy / static_cast<double>(frame_len)));
    zcrs.push_back(FrameZcr(frame));
    const double pitch = analyzer.Pitch(frame, energy);
    if (pitch > 0.0) pitches.push_back(pitch);
    const FrameAnalyzer::SpectralStats st = analyzer.Spectral(frame);
    centroids.push_back(st.centroid);
    bandwidths.push_back(st.bandwidth);
    for (size_t b = 0; b < 4; ++b) subband_acc[b] += st.subband[b];
    ++spectral_frames;
  }
  if (volumes.empty()) return f;

  const double vol_mean = util::Mean(volumes);
  double vol_max = 0.0, vol_min = 1e9;
  for (double v : volumes) {
    vol_max = std::max(vol_max, v);
    vol_min = std::min(vol_min, v);
  }
  size_t silent = 0;
  for (double v : volumes) {
    if (v < 0.1 * std::max(vol_mean, 1e-6)) ++silent;
  }

  f[0] = vol_mean;
  f[1] = util::StdDev(volumes);
  f[2] = vol_max > 1e-9 ? (vol_max - vol_min) / vol_max : 0.0;
  f[3] = static_cast<double>(silent) / static_cast<double>(volumes.size());
  f[4] = util::Mean(zcrs);
  f[5] = util::StdDev(zcrs);
  f[6] = util::Mean(pitches) / 1000.0;
  f[7] = util::StdDev(pitches) / 1000.0;
  f[8] = util::Mean(centroids);
  f[9] = util::Mean(bandwidths);
  for (size_t b = 0; b < 4; ++b) {
    f[10 + b] = spectral_frames > 0
                    ? subband_acc[b] / static_cast<double>(spectral_frames)
                    : 0.0;
  }
  return f;
}

std::vector<AudioBuffer> SplitIntoClips(const AudioBuffer& audio,
                                        double clip_seconds) {
  std::vector<AudioBuffer> clips;
  if (audio.empty() || clip_seconds <= 0.0) return clips;
  const double total = audio.DurationSeconds();
  double t = 0.0;
  while (t + clip_seconds / 2.0 <= total) {
    clips.push_back(audio.Slice(t, clip_seconds));
    t += clip_seconds;
  }
  return clips;
}

}  // namespace classminer::audio
