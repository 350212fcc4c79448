#include "audio/features.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/cpu.h"
#include "util/fft.h"
#include "util/hypot.h"
#include "util/lanes.h"
#include "util/logging.h"
#include "util/mathutil.h"

namespace classminer::audio {
namespace internal {

int PitchQmax(size_t n) {
  // The square root is rounded; the integer checks settle the floor.
  constexpr int64_t kMax = 2147483647;
  const int64_t terms = static_cast<int64_t>(std::min<size_t>(n, kMax)) + 1;
  int64_t q = std::min<int64_t>(
      32767, static_cast<int64_t>(std::sqrt(static_cast<double>(kMax / terms))));
  while (q > 0 && q * q * terms > kMax) --q;
  while (q < 32767 && (q + 1) * (q + 1) * terms <= kMax) ++q;
  return static_cast<int>(q);
}

size_t IntAutocorrOutputSize(int min_lag, int max_lag) {
  const size_t lags = static_cast<size_t>(max_lag - min_lag + 1);
  const size_t block = static_cast<size_t>(kIntAutocorrLagBlock);
  return (lags + block - 1) / block * block;
}

// Its speed depends on where its inner loop falls against 64-byte fetch
// blocks: BM_FramePitch/level:0 read 1.3 or 1.7 ms from the same source,
// by link layout alone. So the function starts on a 64-byte boundary in
// every binary.
__attribute__((aligned(64))) void IntAutocorrelationScalar(
    std::span<const int16_t> q, size_t n, int min_lag, int max_lag,
    std::span<int32_t> r) {
  // Eight lags at a time: the compiler keeps the accumulators in vector
  // registers at the baseline ISA. Lags past their last term read the
  // zero padding.
  constexpr int kBlock = 8;
  static_assert(kIntAutocorrLagBlock % kBlock == 0);
  for (int lag = min_lag; lag <= max_lag; lag += kBlock) {
    const int16_t* y = q.data() + lag;
    int32_t acc[kBlock] = {};
    const size_t end = n - static_cast<size_t>(lag);
    for (size_t i = 0; i < end; ++i) {
      const int16_t xi = q[i];
      for (int k = 0; k < kBlock; ++k) acc[k] += xi * y[i + k];
    }
    std::copy_n(acc, kBlock, r.data() + (lag - min_lag));
  }
}

namespace {

inline bool UseIntAutocorrelationAccel() {
  return util::ActiveDispatchLevel() >= util::DispatchLevel::kAvx2 &&
         IntAutocorrelationAccelAvailable();
}

}  // namespace

void IntAutocorrelation(std::span<const int16_t> q, size_t n, int min_lag,
                        int max_lag, std::span<int32_t> r) {
  CM_CHECK(min_lag >= 1 && min_lag <= max_lag &&
           static_cast<size_t>(max_lag) < n)
      << "autocorrelation lags out of range";
  CM_CHECK(q.size() >= n + kIntAutocorrPadding &&
           r.size() >= IntAutocorrOutputSize(min_lag, max_lag))
      << "autocorrelation scratch too small";
  if (UseIntAutocorrelationAccel()) {
    IntAutocorrelationAccel(q, n, min_lag, max_lag, r);
  } else {
    IntAutocorrelationScalar(q, n, min_lag, max_lag, r);
  }
}

namespace {

// 2^e for e in the normal range of double.
double PowerOfTwo(int e) {
  return std::bit_cast<double>(static_cast<uint64_t>(1023 + e) << 52);
}

}  // namespace

PitchSearch::PitchSearch(size_t frame_len, int sample_rate)
    : n_(frame_len),
      sample_rate_(sample_rate),
      min_lag_(sample_rate / 500),
      max_lag_(sample_rate / 60),
      ok_(frame_len > static_cast<size_t>(max_lag_) && min_lag_ >= 1),
      qmax_(PitchQmax(frame_len)) {
  if (!ok_) return;
  q_.assign(n_ + kIntAutocorrPadding, 0);
  r_.resize(IntAutocorrOutputSize(min_lag_, max_lag_));
  lags_.reserve(static_cast<size_t>(max_lag_ - min_lag_ + 1));
}

// Why the integer search picks the reference's lag.
//
// Quantise with a power-of-two scale s, q[i] = round(s * x[i]), so that
// s * x[i] = q[i] + e[i] with |e[i]| <= 1/2, and let I(lag) be the exact
// integer sum of q[i] * q[i + lag]. Write R(lag) for the real-valued
// autocorrelation and r(lag) for the double chain the reference computes.
//
// 1. Quantisation: s^2 x[i] x[j] = q[i] q[j] + q[i] e[j] + e[i] q[j] +
//    e[i] e[j], so |s^2 R(lag) - I(lag)| <= sum|q| / 2 + sum|q| / 2 +
//    n / 4 = sum|q| + n / 4.
// 2. Rounding: each product x[i] * x[i + lag] of two floats is exact in
//    double, so r(lag) is a recursive sum of at most n exact terms and
//    |r(lag) - R(lag)| <= gamma_n * sum|x[i] x[i + lag]| <= gamma_n * E,
//    E the exact energy (Cauchy-Schwarz), gamma_n = n u / (1 - n u),
//    u = 2^-53. The energy passed in was summed in double the same way, so
//    E <= energy / (1 - gamma_n), and both together stay below
//    (n + 1) 2^-52 * energy: twice what is needed.
// 3. So s^2 r(lag) lies within B of I(lag), where B (`bound`) adds the two
//    terms plus 1 for the few roundings in computing B and comparing
//    against it (each below 2^-20: every value stays under 2^32). s is a
//    power of two, so s^2 r(lag) and s^2 * energy / 4 (`gate`) are exact.
//
// A lag with I(lag) + 2B < max I cannot hold the maximum of r: its r is
// below the r of the lag with the largest I. Every lag tied at the
// maximum survives, so the first strict maximum over the survivors in
// ascending order is the reference's. When max I + B < gate no r reaches
// a quarter of the energy and the reference reports 0; when a single lag
// survives and max I - B >= gate > 0, its r is positive and clears the
// gate, so the reference reports that lag. Nothing here rounds
// differently under another rounding mode except the quantiser, which
// rounds half away from zero by hand.
double PitchSearch::Pitch(std::span<const float> frame, double energy) {
  if (!ok_) return 0.0;
  if (energy < 1e-9) return 0.0;
  if (!std::isfinite(energy) || qmax_ < 1) {
    // A non-finite energy means a NaN or infinite sample: no bound holds,
    // so every lag takes the exact chain.
    lags_.clear();
    for (int lag = min_lag_; lag <= max_lag_; ++lag) lags_.push_back(lag);
    return ExactPitch(frame, energy, lags_);
  }

  // Scale the peak into (qmax / 2, qmax] by a power of two. The samples
  // are finite, so their magnitudes order like their bit patterns. Both
  // loops below go in blocks of eight, which the compiler vectorises.
  const float* x = frame.data();
  auto magnitude = [&](size_t i) __attribute__((always_inline)) {
    return std::bit_cast<int32_t>(x[i]) & 0x7fffffff;
  };
  int32_t peaks[8] = {};
  size_t i = 0;
  for (; i + 8 <= n_; i += 8) {
    for (size_t k = 0; k < 8; ++k) {
      peaks[k] = std::max(peaks[k], magnitude(i + k));
    }
  }
  int32_t peak_bits = *std::max_element(peaks, peaks + 8);
  for (; i < n_; ++i) peak_bits = std::max(peak_bits, magnitude(i));
  // energy >= 1e-9 makes the peak a normal float, in [2^(e-1), 2^e).
  const int exponent = (peak_bits >> 23) - 126;
  int shift = std::bit_width(static_cast<unsigned>(qmax_)) - 1 - exponent;
  const double peak = std::bit_cast<float>(peak_bits);
  if (peak * PowerOfTwo(shift + 1) <= qmax_) ++shift;
  const double scale = PowerOfTwo(shift);

  // s * x is exact (a float times a power of two, within double range),
  // and so is s * x +- 1/2 for |s * x| >= 2^-29; below that the sum rounds
  // to within 2^-29 of 1/2 and truncates to 0. So q is s * x rounded half
  // away from zero, whatever the rounding mode.
  int16_t* q = q_.data();
  auto quantise = [&](size_t i) __attribute__((always_inline)) {
    const double v = static_cast<double>(x[i]) * scale;
    const int32_t qi = static_cast<int32_t>(v + std::copysign(0.5, v));
    q[i] = static_cast<int16_t>(qi);
    return qi < 0 ? -qi : qi;
  };
  int64_t sum_abs = 0;
  for (i = 0; i + 8 <= n_; i += 8) {
    int32_t block = 0;
    for (size_t k = 0; k < 8; ++k) block += quantise(i + k);
    sum_abs += block;
  }
  for (; i < n_; ++i) sum_abs += quantise(i);
  IntAutocorrelation(q_, n_, min_lag_, max_lag_, r_);

  const size_t lags = static_cast<size_t>(max_lag_ - min_lag_ + 1);
  const int32_t top = *std::max_element(r_.begin(), r_.begin() + lags);
  const double s2 = PowerOfTwo(2 * shift);
  const double gate = 0.25 * energy * s2;
  const double n = static_cast<double>(n_);
  const double bound = static_cast<double>(sum_abs) + 0.25 * n +
                       energy * s2 * (n + 1.0) * 0x1p-52 + 1.0;
  if (static_cast<double>(top) + bound < gate) return 0.0;

  const int64_t reach = static_cast<int64_t>(2.0 * bound) + 1;
  lags_.clear();
  for (size_t k = 0; k < lags; ++k) {
    if (r_[k] + reach >= top) lags_.push_back(min_lag_ + static_cast<int>(k));
  }
  if (lags_.size() == 1 && static_cast<double>(top) - bound >= gate) {
    return static_cast<double>(sample_rate_) / lags_[0];
  }
  return ExactPitch(frame, energy, lags_);
}

// The reference decision over `lags` (ascending): each lag's exact double
// chain in ascending i, the first strict maximum, then the voicing gate.
double PitchSearch::ExactPitch(std::span<const float> frame, double energy,
                               std::span<const int> lags) const {
  double best = 0.0;
  int best_lag = 0;
  for (const int lag : lags) {
    double acc = 0.0;
    const size_t end = n_ - static_cast<size_t>(lag);
    for (size_t i = 0; i < end; ++i) {
      acc += static_cast<double>(frame[i]) * frame[i + static_cast<size_t>(lag)];
    }
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
        pitch_(frame_len, sample_rate),
        spectral_ok_(frame_len >= 8),
        plan_(util::NextPowerOfTwo(std::max<size_t>(frame_len, 2))),
        n_bins_(plan_.size() / 2 + 1),
        nyquist_(sample_rate / 2.0),
        bin_hz_(nyquist_ / (static_cast<double>(n_bins_) - 1.0)),
        re_(kLanes * plan_.size()) {
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
      r.pitch = pitch_.Pitch({frames[l], frame_len_}, r.energy);
    }
    if (spectral_ok_) Spectral(count, out);
  }

 private:
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
  internal::PitchSearch pitch_;
  const bool spectral_ok_;
  const util::FftPlan plan_;
  const size_t n_bins_;
  const double nyquist_;
  const double bin_hz_;
  std::vector<double> re_;     // FFT buffers, [sample][lane]
  std::vector<double> im_;
  std::vector<double> power_;  // |X[i]|, then |X[i]|^2, per bin and lane
  std::vector<double> hz_;     // frequency of each bin
  std::vector<int> band_;      // subband per bin, -1 for none
};

// crossings[i] counts the sign changes between neighbouring samples of
// s[0, i], the sign being `s >= 0.0f` (so -0.0f is non-negative and NaN
// negative). The frame [p, p + n) then holds crossings[p + n - 1] -
// crossings[p] of them: each sample is compared with its neighbour once
// per clip, not once per overlapping frame.
std::vector<int32_t> ZeroCrossingPrefix(std::span<const float> s) {
  std::vector<int32_t> crossings(s.size());
  int32_t run = 0;
  for (size_t i = 1; i < s.size(); ++i) {
    run += (s[i - 1] >= 0.0f) != (s[i] >= 0.0f);
    crossings[i] = run;
  }
  return crossings;
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
  const std::vector<int32_t> crossings = ZeroCrossingPrefix(s);
  std::array<FrameResult, kLanes> block;
  for (size_t first = 0; first < n_frames; first += kLanes) {
    const size_t count = std::min(kLanes, n_frames - first);
    analyzer.AnalyzeBlock(s.data() + first * hop, hop, count, &block);
    for (size_t l = 0; l < count; ++l) {
      const FrameResult& r = block[l];
      volumes.push_back(std::sqrt(r.energy / static_cast<double>(frame_len)));
      const size_t start = (first + l) * hop;
      zcrs.push_back(
          frame_len < 2
              ? 0.0
              : static_cast<double>(crossings[start + frame_len - 1] -
                                    crossings[start]) /
                    static_cast<double>(frame_len - 1));
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
