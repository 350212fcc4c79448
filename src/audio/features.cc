#include "audio/features.h"

#include <algorithm>
#include <cmath>

#include "util/cpu.h"
#include "util/fft.h"
#include "util/hypot.h"
#include "util/lanes.h"
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

using util::kLanes;
using util::LoadLanes;
using util::StoreLanes;

// What the clip features need from one analysis frame.
struct FrameResult {
  double energy = 0.0;     // sum of squares
  double pitch = 0.0;      // Hz; 0 when unvoiced
  double centroid = 0.0;   // normalised to [0, 1] of Nyquist
  double bandwidth = 0.0;  // normalised
  std::array<double, 4> subband{};  // energy ratios
};

// Per-clip scratch and tables, sized from the frame once so the per-frame
// analysis allocates nothing. Frames are analysed kLanes at a time, one
// frame per lane (util/lanes.h): each lane runs exactly the operations a
// frame analysed alone runs, in the same order, so every result is
// bit-identical to the frame-at-a-time loop. The energy and spectral sums
// become four independent chains instead of one latency-bound chain.
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
        bin_hz_(nyquist_ / (static_cast<double>(n_bins_) - 1.0)),
        re_(kLanes * plan_.size()) {
    if (pitch_ok_) {
      x_.assign(frame_len + internal::kAutocorrPadding, 0.0);
      r_.resize(internal::AutocorrOutputSize(min_lag_, max_lag_));
    }
    if (spectral_ok_) {
      im_.resize(kLanes * plan_.size());
      power_.resize(kLanes * n_bins_);
      // Each bin's frequency and subband, decided by the same expressions
      // and comparisons the per-frame loop used to make; -1 when no band
      // takes the bin.
      constexpr double kEdges[5] = {0.0, 630.0, 1720.0, 4400.0, 1e9};
      hz_.resize(n_bins_);
      band_.assign(n_bins_, -1);
      for (size_t i = 0; i < n_bins_; ++i) {
        const double hz = static_cast<double>(i) * bin_hz_;
        hz_[i] = hz;
        for (int b = 0; b < 4; ++b) {
          if (hz >= kEdges[b] && hz < std::min(kEdges[b + 1], nyquist_ + 1.0)) {
            band_[i] = b;
            break;
          }
        }
      }
    }
  }

  // Analyses the `count` (1..kLanes) frames starting at `first`,
  // `first + hop`, ... into out[0, count). Spare lanes repeat the last
  // frame and their results are dropped.
  void AnalyzeBlock(const float* first, size_t hop, size_t count,
                    std::array<FrameResult, kLanes>* out) {
    const float* frames[kLanes] = {};
    for (size_t l = 0; l < kLanes; ++l) {
      frames[l] = first + std::min(l, count - 1) * hop;
    }
    double energy[kLanes] = {};
    util::RunLanes([&]<typename V>() __attribute__((always_inline)) {
      // The frames widened to double and laid out [sample][lane], which
      // is also the FFT input; the sum of squares feeds both the RMS
      // volume and the voicing gate.
      V acc = {};
      for (size_t i = 0; i < frame_len_; ++i) {
        const V x = {frames[0][i], frames[1][i], frames[2][i], frames[3][i]};
        StoreLanes(&re_[kLanes * i], x);
        acc += x * x;
      }
      StoreLanes(energy, acc);
    });
    for (size_t l = 0; l < count; ++l) {
      FrameResult& r = (*out)[l];
      r = FrameResult{};
      r.energy = energy[l];
      r.pitch = Pitch({frames[l], frame_len_}, r.energy);
    }
    if (spectral_ok_) Spectral(count, out);
  }

 private:
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

  // Spectral centroid, bandwidth and subband ratios of the block's frames,
  // whose samples AnalyzeBlock left in re_.
  void Spectral(size_t count, std::array<FrameResult, kLanes>* out) {
    std::fill(re_.begin() + static_cast<std::ptrdiff_t>(kLanes * frame_len_),
              re_.end(), 0.0);
    std::fill(im_.begin(), im_.end(), 0.0);
    plan_.Transform(re_, im_);
    const size_t n = kLanes * n_bins_;
    util::Hypot(std::span(re_).first(n), std::span(im_).first(n), power_);

    util::RunLanes([&]<typename V>() __attribute__((always_inline)) {
      V total = {}, weighted = {};
      V subband[4] = {};
      for (size_t i = 0; i < n_bins_; ++i) {
        V mag = {};
        LoadLanes(mag, &power_[kLanes * i]);
        const V e = mag * mag;
        StoreLanes(&power_[kLanes * i], e);
        total += e;
        weighted += e * hz_[i];
        if (band_[i] >= 0) subband[band_[i]] += e;
      }
      // A silent lane keeps a zero centroid here and all-zero stats below.
      V centroid_hz = {};
      for (size_t l = 0; l < kLanes; ++l) {
        if (!(total[l] < 1e-12)) centroid_hz[l] = weighted[l] / total[l];
      }
      V spread = {};
      for (size_t i = 0; i < n_bins_; ++i) {
        V e = {};
        LoadLanes(e, &power_[kLanes * i]);
        const V d = hz_[i] - centroid_hz;
        spread += e * d * d;
      }
      for (size_t l = 0; l < count; ++l) {
        if (total[l] < 1e-12) continue;
        FrameResult& r = (*out)[l];
        r.centroid = centroid_hz[l] / nyquist_;
        r.bandwidth = std::sqrt(spread[l] / total[l]) / nyquist_;
        for (size_t b = 0; b < 4; ++b) r.subband[b] = subband[b][l] / total[l];
      }
    });
  }

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
  std::vector<double> x_;      // one frame widened to double + zero padding
  std::vector<double> r_;      // autocorrelation per lag
  std::vector<double> re_;     // FFT buffers, [sample][lane]
  std::vector<double> im_;
  std::vector<double> power_;  // |X[i]|, then |X[i]|^2, per bin and lane
  std::vector<double> hz_;     // frequency of each bin
  std::vector<int> band_;      // subband per bin, -1 for none
};

double FrameZcr(std::span<const float> frame) {
  if (frame.size() < 2) return 0.0;
  int crossings = 0;
  for (size_t i = 1; i < frame.size(); ++i) {
    crossings += (frame[i - 1] >= 0.0f) != (frame[i] >= 0.0f);
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

  // Blocks of kLanes frames; results are taken in frame order.
  const std::vector<float>& s = clip.samples();
  const size_t n_frames = (s.size() - frame_len) / hop + 1;
  std::array<FrameResult, kLanes> block;
  for (size_t first = 0; first < n_frames; first += kLanes) {
    const size_t count = std::min(kLanes, n_frames - first);
    analyzer.AnalyzeBlock(s.data() + first * hop, hop, count, &block);
    for (size_t l = 0; l < count; ++l) {
      const FrameResult& r = block[l];
      volumes.push_back(std::sqrt(r.energy / static_cast<double>(frame_len)));
      zcrs.push_back(FrameZcr({s.data() + (first + l) * hop, frame_len}));
      if (r.pitch > 0.0) pitches.push_back(r.pitch);
      centroids.push_back(r.centroid);
      bandwidths.push_back(r.bandwidth);
      for (size_t b = 0; b < 4; ++b) subband_acc[b] += r.subband[b];
    }
  }

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
    f[10 + b] = subband_acc[b] / static_cast<double>(volumes.size());
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
