#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <numbers>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "audio/audio_buffer.h"
#include "audio/bic.h"
#include "audio/features.h"
#include "audio/mfcc.h"
#include "audio/speaker_segmenter.h"
#include "synth/audio_generator.h"
#include "util/cpu.h"
#include "util/exec_context.h"
#include "util/fft.h"
#include "util/logging.h"
#include "util/mathutil.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace classminer::audio {
namespace {

AudioBuffer Tone(double hz, double seconds, int sr = 16000) {
  AudioBuffer buf(sr);
  std::vector<float> samples(static_cast<size_t>(seconds * sr));
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i] = static_cast<float>(0.4 * std::sin(2.0 * M_PI * hz * i / sr));
  }
  buf.Append(samples);
  return buf;
}

AudioBuffer Speech(int speaker, double seconds, uint64_t seed = 1) {
  AudioBuffer buf(16000);
  util::Rng rng(seed);
  synth::AppendSpeech(&buf, synth::MakeSpeakerVoice(speaker), seconds, &rng);
  return buf;
}

TEST(AudioBufferTest, SliceBounds) {
  AudioBuffer buf(100);
  std::vector<float> s(250);
  for (size_t i = 0; i < s.size(); ++i) s[i] = static_cast<float>(i);
  buf.Append(s);
  const AudioBuffer mid = buf.Slice(1.0, 1.0);
  ASSERT_EQ(mid.sample_count(), 100u);
  EXPECT_FLOAT_EQ(mid.at(0), 100.0f);
  const AudioBuffer past = buf.Slice(10.0, 1.0);
  EXPECT_TRUE(past.empty());
  const AudioBuffer tail = buf.Slice(2.0, 5.0);  // clamped
  EXPECT_EQ(tail.sample_count(), 50u);
}

TEST(AudioBufferTest, Duration) {
  AudioBuffer buf(8000);
  buf.samples().resize(4000);
  EXPECT_DOUBLE_EQ(buf.DurationSeconds(), 0.5);
}

TEST(ClipFeaturesTest, SilenceVsTone) {
  util::Rng rng(2);
  AudioBuffer silence(16000);
  synth::AppendSilence(&silence, 2.0, &rng);
  const ClipFeatures fs = ComputeClipFeatures(silence);
  const ClipFeatures ft = ComputeClipFeatures(Tone(220.0, 2.0));
  EXPECT_LT(fs[0], ft[0]);       // volume
  EXPECT_GT(ft[6] * 1000.0, 100.0);  // pitch detected near 220 Hz
  EXPECT_LT(std::fabs(ft[6] * 1000.0 - 220.0), 40.0);
}

TEST(ClipFeaturesTest, SubbandRatiosSumToOne) {
  const ClipFeatures f = ComputeClipFeatures(Speech(1, 2.0));
  EXPECT_NEAR(f[10] + f[11] + f[12] + f[13], 1.0, 1e-6);
}

TEST(ClipFeaturesTest, EmptyClipAllZero) {
  const ClipFeatures f = ComputeClipFeatures(AudioBuffer(16000));
  for (double v : f) EXPECT_EQ(v, 0.0);
}

TEST(ClipSplitTest, CountsAndRemainder) {
  AudioBuffer buf(1000);
  buf.samples().resize(5300);  // 5.3 s
  const std::vector<AudioBuffer> clips = SplitIntoClips(buf, 2.0);
  // Clips at 0-2, 2-4; remainder 1.3 s >= half clip so a third is kept.
  ASSERT_EQ(clips.size(), 3u);
  EXPECT_EQ(clips[0].sample_count(), 2000u);
  EXPECT_EQ(clips[2].sample_count(), 1300u);
}

TEST(MfccTest, ShapeAndWindows) {
  const AudioBuffer clip = Tone(300.0, 1.0);
  const util::Matrix mfcc = ComputeMfcc(clip);
  EXPECT_EQ(mfcc.cols(), static_cast<size_t>(kMfccDims));
  // 1 s at 30 ms windows / 10 ms hop: (16000 - 480) / 160 + 1 = 98.
  EXPECT_EQ(mfcc.rows(), 98u);
}

TEST(MfccTest, DifferentTonesDiffer) {
  const util::Matrix a = ComputeMfcc(Tone(200.0, 0.5));
  const util::Matrix b = ComputeMfcc(Tone(2000.0, 0.5));
  double dist = 0.0;
  for (size_t c = 1; c < static_cast<size_t>(kMfccDims); ++c) {
    double ma = 0.0, mb = 0.0;
    for (size_t r = 0; r < a.rows(); ++r) ma += a.at(r, c);
    for (size_t r = 0; r < b.rows(); ++r) mb += b.at(r, c);
    dist += std::fabs(ma / a.rows() - mb / b.rows());
  }
  EXPECT_GT(dist, 1.0);
}

TEST(MfccTest, TooShortClipIsEmpty) {
  AudioBuffer buf(16000);
  buf.samples().resize(100);
  EXPECT_EQ(ComputeMfcc(buf).rows(), 0u);
}

TEST(BicTest, SameSpeakerNoChange) {
  const util::Matrix x1 = ComputeMfcc(Speech(1, 2.0, 41));
  const util::Matrix x2 = ComputeMfcc(Speech(1, 2.0, 42));
  const BicResult r = BicSpeakerChangeTest(x1, x2);
  EXPECT_FALSE(r.speaker_change) << "delta_bic=" << r.delta_bic;
}

TEST(BicTest, DifferentSpeakersChange) {
  const util::Matrix x1 = ComputeMfcc(Speech(1, 2.0, 43));
  const util::Matrix x2 = ComputeMfcc(Speech(2, 2.0, 44));
  const BicResult r = BicSpeakerChangeTest(x1, x2);
  EXPECT_TRUE(r.speaker_change) << "delta_bic=" << r.delta_bic;
}

TEST(BicTest, SymmetricDecision) {
  const util::Matrix x1 = ComputeMfcc(Speech(3, 2.0, 45));
  const util::Matrix x2 = ComputeMfcc(Speech(4, 2.0, 46));
  EXPECT_EQ(BicSpeakerChangeTest(x1, x2).speaker_change,
            BicSpeakerChangeTest(x2, x1).speaker_change);
}

TEST(BicTest, EmptyInputNeverChanges) {
  const util::Matrix x = ComputeMfcc(Speech(1, 1.0, 47));
  EXPECT_FALSE(BicSpeakerChangeTest(x, util::Matrix(0, 14)).speaker_change);
}

TEST(SpeakerSegmenterTest, ShortShotNotAnalyzable) {
  SpeakerSegmenter seg;
  const AudioBuffer audio = Speech(1, 5.0, 51);
  const ShotAudioAnalysis a = seg.AnalyzeShot(audio, 0.0, 1.0, 0);
  EXPECT_FALSE(a.analyzable);
  EXPECT_FALSE(a.has_speech);
}

TEST(SpeakerSegmenterTest, SpeechShotsDetected) {
  SpeakerSegmenter seg;
  const AudioBuffer audio = Speech(1, 6.0, 52);
  const ShotAudioAnalysis a = seg.AnalyzeShot(audio, 0.0, 3.0, 0);
  EXPECT_TRUE(a.analyzable);
  EXPECT_TRUE(a.has_speech);
  EXPECT_GT(a.mfcc.rows(), 0u);
}

TEST(SpeakerSegmenterTest, NoiseIsNotSpeech) {
  SpeakerSegmenter seg;
  AudioBuffer audio(16000);
  util::Rng rng(53);
  synth::AppendProcedureNoise(&audio, 6.0, &rng);
  const ShotAudioAnalysis a = seg.AnalyzeShot(audio, 0.0, 4.0, 0);
  EXPECT_TRUE(a.analyzable);
  EXPECT_FALSE(a.has_speech);
}

TEST(SpeakerSegmenterTest, SpeakerChangeAcrossShots) {
  SpeakerSegmenter seg;
  AudioBuffer audio(16000);
  util::Rng rng(54);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(7), 3.0, &rng);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(8), 3.0, &rng);
  synth::AppendSpeech(&audio, synth::MakeSpeakerVoice(7), 3.0, &rng);
  synth::AppendProcedureNoise(&audio, 3.0, &rng);
  const ShotAudioAnalysis s0 = seg.AnalyzeShot(audio, 0.0, 3.0, 0);
  const ShotAudioAnalysis s1 = seg.AnalyzeShot(audio, 3.0, 6.0, 1);
  const ShotAudioAnalysis s2 = seg.AnalyzeShot(audio, 6.0, 9.0, 2);
  const ShotAudioAnalysis noise = seg.AnalyzeShot(audio, 9.0, 12.0, 3);
  EXPECT_TRUE(seg.SpeakerChange(s0, s1));
  EXPECT_TRUE(seg.SpeakerChange(s1, s2));
  EXPECT_FALSE(seg.SpeakerChange(s0, s2));  // same speaker resumes
  // A shot without usable speech never asserts a change, though BIC alone
  // tells its MFCCs from the speaker's.
  ASSERT_TRUE(noise.analyzable);
  EXPECT_FALSE(noise.has_speech);
  EXPECT_TRUE(seg.SpeakerChangeDetail(s0, noise).speaker_change);
  EXPECT_FALSE(seg.SpeakerChange(s0, noise));
  EXPECT_FALSE(seg.SpeakerChange(noise, s0));
}


// ---------------------------------------------------------------------------
// Oracles: verbatim copies of the audio loops as they stood before the
// lag-blocked pitch kernel, the planned FFT and the sparse filterbank. The
// production code must reproduce them bit for bit at every dispatch level.

namespace oracle {

void Fft(std::vector<std::complex<double>>* data, bool inverse) {
  const size_t n = data->size();
  CM_CHECK(n > 0 && (n & (n - 1)) == 0) << "FFT size must be a power of two";
  auto& a = *data;

  // Bit-reversal permutation.
  for (size_t i = 1, j = 0; i < n; ++i) {
    size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  for (size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        2.0 * std::numbers::pi / static_cast<double>(len) *
        (inverse ? 1.0 : -1.0);
    const std::complex<double> wlen(std::cos(angle), std::sin(angle));
    for (size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }

  if (inverse) {
    for (auto& x : a) x /= static_cast<double>(n);
  }
}

std::vector<double> MagnitudeSpectrum(std::span<const double> signal) {
  const size_t n = util::NextPowerOfTwo(std::max<size_t>(signal.size(), 2));
  std::vector<std::complex<double>> buf(n, {0.0, 0.0});
  for (size_t i = 0; i < signal.size(); ++i) buf[i] = {signal[i], 0.0};
  Fft(&buf, false);
  std::vector<double> mags(n / 2 + 1);
  for (size_t i = 0; i <= n / 2; ++i) mags[i] = std::abs(buf[i]);
  return mags;
}

double FrameRms(std::span<const float> frame) {
  if (frame.empty()) return 0.0;
  double acc = 0.0;
  for (float s : frame) acc += static_cast<double>(s) * s;
  return std::sqrt(acc / static_cast<double>(frame.size()));
}

double FrameZcr(std::span<const float> frame) {
  if (frame.size() < 2) return 0.0;
  int crossings = 0;
  for (size_t i = 1; i < frame.size(); ++i) {
    if ((frame[i - 1] >= 0.0f) != (frame[i] >= 0.0f)) ++crossings;
  }
  return static_cast<double>(crossings) /
         static_cast<double>(frame.size() - 1);
}

double FramePitch(std::span<const float> frame, int sample_rate) {
  const int min_lag = sample_rate / 500;
  const int max_lag = sample_rate / 60;
  if (static_cast<int>(frame.size()) <= max_lag || min_lag < 1) return 0.0;
  double energy = 0.0;
  for (float s : frame) energy += static_cast<double>(s) * s;
  if (energy < 1e-9) return 0.0;

  double best = 0.0;
  int best_lag = 0;
  for (int lag = min_lag; lag <= max_lag; ++lag) {
    double acc = 0.0;
    for (size_t i = 0; i + static_cast<size_t>(lag) < frame.size(); ++i) {
      acc += static_cast<double>(frame[i]) * frame[i + static_cast<size_t>(lag)];
    }
    if (acc > best) {
      best = acc;
      best_lag = lag;
    }
  }
  if (best_lag == 0 || best < 0.25 * energy) return 0.0;
  return static_cast<double>(sample_rate) / best_lag;
}

struct SpectralStats {
  double centroid = 0.0;
  double bandwidth = 0.0;
  std::array<double, 4> subband{};
};

SpectralStats FrameSpectral(std::span<const float> frame, int sample_rate) {
  SpectralStats stats;
  if (frame.size() < 8) return stats;
  std::vector<double> buf(frame.begin(), frame.end());
  const std::vector<double> mags = MagnitudeSpectrum(buf);
  const double nyquist = sample_rate / 2.0;
  const double bin_hz = nyquist / (static_cast<double>(mags.size()) - 1.0);

  double total = 0.0, weighted = 0.0;
  for (size_t i = 0; i < mags.size(); ++i) {
    const double e = mags[i] * mags[i];
    total += e;
    weighted += e * (static_cast<double>(i) * bin_hz);
  }
  if (total < 1e-12) return stats;
  const double centroid_hz = weighted / total;
  stats.centroid = centroid_hz / nyquist;

  double spread = 0.0;
  for (size_t i = 0; i < mags.size(); ++i) {
    const double e = mags[i] * mags[i];
    const double d = static_cast<double>(i) * bin_hz - centroid_hz;
    spread += e * d * d;
  }
  stats.bandwidth = std::sqrt(spread / total) / nyquist;

  constexpr double kEdges[5] = {0.0, 630.0, 1720.0, 4400.0, 1e9};
  for (size_t i = 0; i < mags.size(); ++i) {
    const double hz = static_cast<double>(i) * bin_hz;
    const double e = mags[i] * mags[i];
    for (int b = 0; b < 4; ++b) {
      if (hz >= kEdges[b] && hz < std::min(kEdges[b + 1], nyquist + 1.0)) {
        stats.subband[static_cast<size_t>(b)] += e;
        break;
      }
    }
  }
  for (double& s : stats.subband) s /= total;
  return stats;
}

ClipFeatures ComputeClipFeatures(const AudioBuffer& clip,
                                 const ClipFeatureOptions& options) {
  ClipFeatures f{};
  const int sr = clip.sample_rate();
  const size_t frame_len =
      static_cast<size_t>(std::max(1.0, options.frame_seconds * sr));
  const size_t hop = static_cast<size_t>(std::max(1.0, options.hop_seconds * sr));
  if (clip.sample_count() < frame_len) return f;

  std::vector<double> volumes, zcrs, pitches, centroids, bandwidths;
  std::array<double, 4> subband_acc{};
  size_t spectral_frames = 0;

  const std::vector<float>& s = clip.samples();
  for (size_t start = 0; start + frame_len <= s.size(); start += hop) {
    std::span<const float> frame(s.data() + start, frame_len);
    volumes.push_back(FrameRms(frame));
    zcrs.push_back(FrameZcr(frame));
    const double pitch = FramePitch(frame, sr);
    if (pitch > 0.0) pitches.push_back(pitch);
    const SpectralStats st = FrameSpectral(frame, sr);
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

// The MFCC parameters ComputeMfcc fixes.
constexpr double kMfccWindowSeconds = 0.030;
constexpr double kMfccHopSeconds = 0.010;
constexpr int kMelFilters = 26;
constexpr double kPreEmphasis = 0.97;
constexpr double kMelLowHz = 60.0;

double HzToMel(double hz) { return 2595.0 * std::log10(1.0 + hz / 700.0); }
double MelToHz(double mel) {
  return 700.0 * (std::pow(10.0, mel / 2595.0) - 1.0);
}

std::vector<std::vector<double>> BuildFilterbank(int n_filters, int n_bins,
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
  std::vector<std::vector<double>> bank(
      static_cast<size_t>(n_filters),
      std::vector<double>(static_cast<size_t>(n_bins), 0.0));
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
      bank[static_cast<size_t>(m)][static_cast<size_t>(b)] = w;
    }
  }
  return bank;
}

util::Matrix ComputeMfcc(const AudioBuffer& clip) {
  const int sr = clip.sample_rate();
  const size_t win =
      static_cast<size_t>(std::max(2.0, kMfccWindowSeconds * sr));
  const size_t hop = static_cast<size_t>(std::max(1.0, kMfccHopSeconds * sr));
  const std::vector<float>& s = clip.samples();
  if (s.size() < win) return util::Matrix(0, kMfccDims);

  const size_t fft_size = util::NextPowerOfTwo(win);
  const int n_bins = static_cast<int>(fft_size / 2 + 1);
  const double bin_hz = static_cast<double>(sr) / static_cast<double>(fft_size);
  const std::vector<std::vector<double>> bank =
      BuildFilterbank(kMelFilters, n_bins, bin_hz, kMelLowHz, sr / 2.0);

  std::vector<double> hamming(win);
  for (size_t i = 0; i < win; ++i) {
    hamming[i] = 0.54 - 0.46 * std::cos(2.0 * std::numbers::pi * i /
                                        (static_cast<double>(win) - 1.0));
  }

  const size_t n_windows = (s.size() - win) / hop + 1;
  util::Matrix mfcc(n_windows, kMfccDims);

  std::vector<std::complex<double>> buf(fft_size);
  std::vector<double> mel_log(static_cast<size_t>(kMelFilters));
  for (size_t w = 0; w < n_windows; ++w) {
    const size_t start = w * hop;
    for (size_t i = 0; i < fft_size; ++i) {
      if (i < win) {
        const double cur = s[start + i];
        const double prev = (start + i > 0) ? s[start + i - 1] : 0.0;
        buf[i] = {(cur - kPreEmphasis * prev) * hamming[i], 0.0};
      } else {
        buf[i] = {0.0, 0.0};
      }
    }
    Fft(&buf, false);

    for (int m = 0; m < kMelFilters; ++m) {
      double acc = 0.0;
      for (int b = 0; b < n_bins; ++b) {
        const double mag = std::abs(buf[static_cast<size_t>(b)]);
        acc += bank[static_cast<size_t>(m)][static_cast<size_t>(b)] * mag * mag;
      }
      mel_log[static_cast<size_t>(m)] = std::log(std::max(acc, 1e-12));
    }

    for (int k = 0; k < kMfccDims; ++k) {
      double acc = 0.0;
      for (int m = 0; m < kMelFilters; ++m) {
        acc += mel_log[static_cast<size_t>(m)] *
               std::cos(std::numbers::pi * k * (m + 0.5) / kMelFilters);
      }
      mfcc.at(w, static_cast<size_t>(k)) = acc;
    }
  }
  return mfcc;
}

// SpeakerSegmenter::AnalyzeShot as it stood before the clip search skipped
// clips after a first clip at the heuristic's ceiling: every clip featured,
// then the first strict maximum of the margin over all of them.
ShotAudioAnalysis AnalyzeShot(const SpeakerSegmenter::Options& options,
                              const AudioBuffer& audio, double start_sec,
                              double end_sec, int shot_index) {
  ShotAudioAnalysis out;
  out.shot_index = shot_index;
  const double duration = end_sec - start_sec;
  if (duration < options.min_shot_seconds) return out;

  const AudioBuffer span = audio.Slice(start_sec, duration);
  const std::vector<AudioBuffer> clips =
      SplitIntoClips(span, options.clip_seconds);
  if (clips.empty()) return out;
  out.analyzable = true;

  std::vector<ClipFeatures> features(clips.size());
  for (size_t i = 0; i < clips.size(); ++i) {
    features[i] = audio::ComputeClipFeatures(clips[i]);
  }
  double best_margin = -1e18;
  size_t best_clip = 0;
  for (size_t i = 0; i < clips.size(); ++i) {
    const double margin = SpeakerSegmenter::HeuristicMargin(features[i]);
    if (margin > best_margin) {
      best_margin = margin;
      best_clip = i;
    }
  }
  out.speech_margin = best_margin;
  out.has_speech = best_margin > 0.0;
  out.rep_features = features[best_clip];
  out.mfcc = audio::ComputeMfcc(clips[best_clip]);
  return out;
}

}  // namespace oracle

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

class ScopedDispatchLevel {
 public:
  explicit ScopedDispatchLevel(util::DispatchLevel level) {
    EXPECT_TRUE(util::SetDispatchLevelForTest(level));
  }
  ~ScopedDispatchLevel() { util::ClearDispatchLevelForTest(); }
  ScopedDispatchLevel(const ScopedDispatchLevel&) = delete;
  ScopedDispatchLevel& operator=(const ScopedDispatchLevel&) = delete;
};

struct OracleSignal {
  std::string name;
  AudioBuffer clip;
};

// Speech, procedure noise, synthetic and digital silence, a pure tone and a
// full-scale +-1 square wave at `sample_rate`.
std::vector<OracleSignal> OracleSignals(int sample_rate, double seconds) {
  std::vector<OracleSignal> out;
  util::Rng rng(static_cast<uint64_t>(sample_rate));
  AudioBuffer speech(sample_rate);
  synth::AppendSpeech(&speech, synth::MakeSpeakerVoice(3), seconds, &rng);
  out.push_back({"speech", std::move(speech)});
  AudioBuffer noise(sample_rate);
  synth::AppendProcedureNoise(&noise, seconds, &rng);
  out.push_back({"noise", std::move(noise)});
  AudioBuffer silence(sample_rate);
  synth::AppendSilence(&silence, seconds, &rng);
  out.push_back({"silence", std::move(silence)});
  AudioBuffer zeros(sample_rate);
  zeros.Append(std::vector<float>(
      static_cast<size_t>(seconds * sample_rate), 0.0f));
  out.push_back({"zeros", std::move(zeros)});
  out.push_back({"tone", Tone(187.0, seconds, sample_rate)});
  AudioBuffer square(sample_rate);
  std::vector<float> sq(static_cast<size_t>(seconds * sample_rate));
  for (size_t i = 0; i < sq.size(); ++i) {
    sq[i] = std::fmod(210.0 * static_cast<double>(i) / sample_rate, 1.0) < 0.5
                ? 1.0f
                : -1.0f;
  }
  square.Append(sq);
  out.push_back({"square", std::move(square)});
  return out;
}

void ExpectClipFeaturesMatchOracle(const AudioBuffer& clip,
                                   const ClipFeatureOptions& options,
                                   const std::string& what) {
  const ClipFeatures want = oracle::ComputeClipFeatures(clip, options);
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    const ClipFeatures got = ComputeClipFeatures(clip, options);
    for (size_t d = 0; d < got.size(); ++d) {
      EXPECT_EQ(Bits(got[d]), Bits(want[d]))
          << what << " dim " << d << " level "
          << util::DispatchLevelName(level) << ": " << got[d] << " vs "
          << want[d];
    }
  }
}

void ExpectMfccMatchesOracle(const AudioBuffer& clip,
                             const std::string& what) {
  const util::Matrix want = oracle::ComputeMfcc(clip);
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    const util::Matrix got = ComputeMfcc(clip);
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (size_t r = 0; r < got.rows(); ++r) {
      for (size_t c = 0; c < got.cols(); ++c) {
        ASSERT_EQ(Bits(got.at(r, c)), Bits(want.at(r, c)))
            << what << " window " << r << " coeff " << c << " level "
            << util::DispatchLevelName(level);
      }
    }
  }
}

TEST(AudioOracleTest, ClipFeaturesAreBitIdenticalToReference) {
  for (int sr : {8000, 16000, 22050, 44100}) {
    for (const OracleSignal& sig : OracleSignals(sr, 1.0)) {
      ExpectClipFeaturesMatchOracle(sig.clip, {},
                                    sig.name + " @" + std::to_string(sr));
    }
  }
}

TEST(AudioOracleTest, MfccIsBitIdenticalToReference) {
  for (int sr : {8000, 16000, 22050, 44100}) {
    for (const OracleSignal& sig : OracleSignals(sr, 1.0)) {
      ExpectMfccMatchesOracle(sig.clip, sig.name + " @" + std::to_string(sr));
    }
  }
}

// 50 ms frames at 44.1 kHz are 2205 samples: longer than 2048 (a 4096-point
// FFT) and not a multiple of any lag block, so scratch must be sized from
// the frame and the last lag block is ragged. MFCC windows are fixed at
// 30 ms, which passes 2048 samples at 96 kHz (2880).
TEST(AudioOracleTest, LongRaggedFramesAreBitIdenticalToReference) {
  ClipFeatureOptions clip_options;
  clip_options.frame_seconds = 0.05;
  clip_options.hop_seconds = 0.02;
  for (const OracleSignal& sig : OracleSignals(44100, 0.6)) {
    ASSERT_GT(static_cast<size_t>(clip_options.frame_seconds * 44100), 2048u);
    ExpectClipFeaturesMatchOracle(sig.clip, clip_options, sig.name);
  }
  ASSERT_GT(static_cast<size_t>(oracle::kMfccWindowSeconds * 96000), 2048u);
  for (const OracleSignal& sig : OracleSignals(96000, 0.6)) {
    ExpectMfccMatchesOracle(sig.clip, sig.name + " @96000");
  }
}

// Frames go four to a block, one per lane. Clips of exactly 1 to 5
// frames leave 1, 2, 3, 4 and again 1 frame in the last block; each count
// comes as short as possible and one sample short of the next frame, plus
// one clip a sample short of a frame (no frames at all).
TEST(AudioOracleTest, RaggedFrameBlocksAreBitIdenticalToReference) {
  for (int sr : {8000, 16000, 22050, 44100}) {
    const ClipFeatureOptions clip_options;
    const size_t frame_len =
        static_cast<size_t>(std::max(1.0, clip_options.frame_seconds * sr));
    const size_t hop =
        static_cast<size_t>(std::max(1.0, clip_options.hop_seconds * sr));
    ASSERT_EQ(frame_len,
              static_cast<size_t>(oracle::kMfccWindowSeconds * sr));
    ASSERT_EQ(hop, static_cast<size_t>(oracle::kMfccHopSeconds * sr));
    std::vector<size_t> lengths = {frame_len - 1};
    for (size_t frames = 1; frames <= 5; ++frames) {
      lengths.push_back(frame_len + (frames - 1) * hop);
      lengths.push_back(frame_len + frames * hop - 1);
    }
    for (const OracleSignal& sig : OracleSignals(sr, 0.2)) {
      for (const size_t len : lengths) {
        ASSERT_LE(len, sig.clip.sample_count());
        AudioBuffer clip(sr);
        clip.Append(std::span(sig.clip.samples()).first(len));
        const std::string what = sig.name + " @" + std::to_string(sr) +
                                 " length " + std::to_string(len);
        ExpectClipFeaturesMatchOracle(clip, clip_options, what);
        ExpectMfccMatchesOracle(clip, what);
      }
    }
  }
}

// Zero crossings follow the sign rule `x >= 0.0f`: -0.0f counts as
// non-negative and NaN as negative. Runs of exact zeros of either sign and
// of NaN, alone and alternating with each other and with non-zero samples,
// are set into speech at the start, the middle and the end of the clip.
TEST(AudioOracleTest, ZeroCrossingSignRuleIsBitIdenticalToReference) {
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  const std::pair<const char*, std::vector<float>> patterns[] = {
      {"+0", {0.0f}},           {"-0", {-0.0f}},
      {"+0 -0", {0.0f, -0.0f}}, {"-0 -x", {-0.0f, -0.25f}},
      {"+0 -x", {0.0f, -0.25f}}, {"nan", {kNan}},
      {"nan +x", {kNan, 0.25f}}, {"nan -0", {kNan, -0.0f}},
      {"nan -x", {kNan, -0.25f}}};
  for (int sr : {8000, 16000}) {
    const AudioBuffer speech = OracleSignals(sr, 0.3).front().clip;
    for (const auto& [name, values] : patterns) {
      for (const size_t len : {size_t{1}, size_t{7}, size_t{300}}) {
        std::vector<float> s = speech.samples();
        for (const size_t at : {size_t{0}, s.size() / 3, s.size() - len}) {
          for (size_t i = 0; i < len; ++i) {
            s[at + i] = values[i % values.size()];
          }
        }
        AudioBuffer clip(sr);
        clip.Append(s);
        ExpectClipFeaturesMatchOracle(
            clip, {},
            std::string(name) + " run of " + std::to_string(len) + " @" +
                std::to_string(sr));
      }
    }
  }
}

// HeuristicMargin adds or subtracts a fixed weight per rule. All 16
// outcomes of its four rules: the margin is the sum of the four weights,
// and only a clip passing every rule reaches kHeuristicMarginCeiling, the
// value at which AnalyzeShot skips the clips not yet begun.
TEST(SpeakerSegmenterTest, HeuristicMarginCeilingIsReachedOnlyByAllRules) {
  EXPECT_EQ(SpeakerSegmenter::kHeuristicMarginCeiling, 2.25);
  double top = -1e18;
  int at_ceiling = 0;
  for (int outcome = 0; outcome < 16; ++outcome) {
    const bool pitch = outcome & 1, volume = outcome & 2,
               low_band = outcome & 4, pauses = outcome & 8;
    ClipFeatures f{};
    f[6] = pitch ? 0.2 : 0.0;            // pitch mean, kHz
    f[0] = volume ? 0.1 : 0.001;         // volume mean
    f[10] = low_band ? 0.4 : 0.1;        // subband 0-630 Hz
    f[11] = low_band ? 0.3 : 0.1;        // subband 630-1720 Hz
    f[3] = pauses ? 0.5 : 0.95;          // silence ratio
    const double want = (pitch ? 1.0 : -1.0) + (volume ? 0.5 : -1.0) +
                        (low_band ? 0.5 : -0.5) + (pauses ? 0.25 : -0.5);
    const double margin = SpeakerSegmenter::HeuristicMargin(f);
    EXPECT_EQ(margin, want) << "outcome " << outcome;
    top = std::max(top, margin);
    at_ceiling += margin == SpeakerSegmenter::kHeuristicMarginCeiling;
    if (outcome != 15) {
      EXPECT_LT(margin, SpeakerSegmenter::kHeuristicMarginCeiling);
    }
  }
  EXPECT_EQ(top, SpeakerSegmenter::kHeuristicMarginCeiling);
  EXPECT_EQ(at_ceiling, 1);
}

void ExpectSameAnalysis(const ShotAudioAnalysis& got,
                        const ShotAudioAnalysis& want,
                        const std::string& what) {
  EXPECT_EQ(got.shot_index, want.shot_index) << what;
  EXPECT_EQ(got.analyzable, want.analyzable) << what;
  EXPECT_EQ(got.has_speech, want.has_speech) << what;
  EXPECT_EQ(Bits(got.speech_margin), Bits(want.speech_margin)) << what;
  for (size_t d = 0; d < got.rep_features.size(); ++d) {
    EXPECT_EQ(Bits(got.rep_features[d]), Bits(want.rep_features[d]))
        << what << " dim " << d;
  }
  ASSERT_EQ(got.mfcc.rows(), want.mfcc.rows()) << what;
  ASSERT_EQ(got.mfcc.cols(), want.mfcc.cols()) << what;
  for (size_t r = 0; r < got.mfcc.rows(); ++r) {
    for (size_t c = 0; c < got.mfcc.cols(); ++c) {
      ASSERT_EQ(Bits(got.mfcc.at(r, c)), Bits(want.mfcc.at(r, c)))
          << what << " window " << r << " coeff " << c;
    }
  }
}

// AnalyzeShot against the all-clips loop it replaced, bit for bit: shots
// that open on clean speech (the heuristic search skips later clips),
// on quiet speech (positive, below the ceiling: the search goes on), on
// noise, silent shots and mixed ones, serially and on pools of 2 and 4
// threads, at every dispatch level.
TEST(SpeakerSegmenterTest, AnalyzeShotIsBitIdenticalToAllClipsReference) {
  util::Rng rng(61);
  auto voice = [&](AudioBuffer* a, int speaker, double seconds) {
    synth::AppendSpeech(a, synth::MakeSpeakerVoice(speaker), seconds, &rng);
  };
  // How the first clip scores under the heuristic.
  enum class Opening { kAtCeiling, kSpeechBelowCeiling, kNotSpeech };
  struct Track {
    std::string name;
    AudioBuffer audio{16000};
    Opening opening;
  };
  std::vector<Track> tracks(5);
  tracks[0].name = "speech first";
  for (const int speaker : {2, 5, 8, 11, 14}) {
    voice(&tracks[0].audio, speaker, 2.0);
  }
  tracks[0].opening = Opening::kAtCeiling;
  tracks[1].name = "quiet speech first";
  voice(&tracks[1].audio, 6, 2.0);
  for (float& v : tracks[1].audio.samples()) v *= 0.005f;  // volume rule
  voice(&tracks[1].audio, 6, 4.0);
  tracks[1].opening = Opening::kSpeechBelowCeiling;
  tracks[2].name = "noise first";
  synth::AppendProcedureNoise(&tracks[2].audio, 2.0, &rng);
  voice(&tracks[2].audio, 3, 4.0);
  tracks[2].opening = Opening::kNotSpeech;
  tracks[3].name = "silent";
  synth::AppendSilence(&tracks[3].audio, 6.0, &rng);
  tracks[3].opening = Opening::kNotSpeech;
  tracks[4].name = "mixed";
  synth::AppendSilence(&tracks[4].audio, 2.0, &rng);
  voice(&tracks[4].audio, 4, 2.0);
  synth::AppendProcedureNoise(&tracks[4].audio, 2.0, &rng);
  voice(&tracks[4].audio, 5, 2.0);
  tracks[4].opening = Opening::kNotSpeech;

  const SpeakerSegmenter::Options options;
  const SpeakerSegmenter seg(options);
  util::ThreadPool pool2(2), pool4(4);
  for (const Track& t : tracks) {
    const double end = t.audio.DurationSeconds();
    // The whole track, and a span off the clip grid.
    const std::pair<double, double> spans[] = {{0.0, end}, {0.37, end - 0.41}};
    for (const auto& [start, stop] : spans) {
      const ShotAudioAnalysis want =
          oracle::AnalyzeShot(options, t.audio, start, stop, 3);
      ASSERT_TRUE(want.analyzable) << t.name;
      if (start == 0.0) {
        // The tracks cover every branch of the search.
        const double first = SpeakerSegmenter::HeuristicMargin(
            ComputeClipFeatures(t.audio.Slice(0.0, options.clip_seconds)));
        const Opening opening =
            first == SpeakerSegmenter::kHeuristicMarginCeiling
                ? Opening::kAtCeiling
                : first > 0.0 ? Opening::kSpeechBelowCeiling
                              : Opening::kNotSpeech;
        EXPECT_EQ(opening, t.opening) << t.name;
      }
      for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
        ScopedDispatchLevel pin(level);
        for (util::ThreadPool* p :
             {static_cast<util::ThreadPool*>(nullptr), &pool2, &pool4}) {
          const std::string what =
              t.name + " from " + std::to_string(start) + " level " +
              util::DispatchLevelName(level) + " threads " +
              std::to_string(p != nullptr ? p->thread_count() : 1);
          ExpectSameAnalysis(seg.AnalyzeShot(t.audio, start, stop, 3,
                                             util::ExecutionContext(p)),
                             want, what);
        }
      }
    }
  }
}

TEST(AudioOracleTest, PitchQmaxKeepsInt32SumsInRange) {
  EXPECT_EQ(internal::PitchQmax(480), 2112);
  EXPECT_EQ(internal::PitchQmax(2205), 986);
  for (size_t n : {2u, 9u, 240u, 480u, 661u, 1323u, 2205u, 100000u}) {
    const int64_t q = internal::PitchQmax(n);
    EXPECT_LE(q, 32767);
    EXPECT_LE(q * q * static_cast<int64_t>(n + 1), int64_t{2147483647}) << n;
    EXPECT_GT((q + 1) * (q + 1) * static_cast<int64_t>(n + 1),
              int64_t{2147483647})
        << n;
  }
}

// The integer kernel against naive int64 sums, on random values and on
// the extremes +-Qmax (all one sign, alternating, and runs), at every
// dispatch level, lag-block boundaries included.
TEST(AudioOracleTest, IntAutocorrelationMatchesNaiveSums) {
  util::Rng rng(91);
  for (size_t n : {2u, 9u, 33u, 240u, 480u, 661u, 1323u, 2205u}) {
    const int qmax = internal::PitchQmax(n);
    std::vector<std::vector<int16_t>> inputs;
    auto add = [&](auto value_at) {
      std::vector<int16_t> q(n + internal::kIntAutocorrPadding, 0);
      for (size_t i = 0; i < n; ++i) q[i] = static_cast<int16_t>(value_at(i));
      inputs.push_back(std::move(q));
    };
    add([&](size_t) {
      return rng.UniformInt(-qmax, qmax);
    });
    add([&](size_t) { return qmax; });
    add([&](size_t) { return -qmax; });
    add([&](size_t i) { return i % 2 == 0 ? qmax : -qmax; });
    add([&](size_t i) { return (i / 7) % 2 == 0 ? qmax : -qmax; });
    for (const std::vector<int16_t>& q : inputs) {
      for (int min_lag : {1, 5, 32}) {
        for (int max_lag : {min_lag, min_lag + 31, min_lag + 32,
                            static_cast<int>(n) - 1}) {
          if (max_lag < min_lag || static_cast<size_t>(max_lag) >= n) continue;
          std::vector<int64_t> want(static_cast<size_t>(max_lag - min_lag + 1));
          for (int lag = min_lag; lag <= max_lag; ++lag) {
            int64_t acc = 0;
            for (size_t i = 0; i + static_cast<size_t>(lag) < n; ++i) {
              acc += int64_t{q[i]} * q[i + static_cast<size_t>(lag)];
            }
            want[static_cast<size_t>(lag - min_lag)] = acc;
          }
          for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
            ScopedDispatchLevel pin(level);
            std::vector<int32_t> r(
                internal::IntAutocorrOutputSize(min_lag, max_lag));
            internal::IntAutocorrelation(q, n, min_lag, max_lag, r);
            for (size_t k = 0; k < want.size(); ++k) {
              ASSERT_EQ(r[k], want[k])
                  << "n " << n << " lags [" << min_lag << ", " << max_lag
                  << "] lag " << min_lag + static_cast<int>(k) << " level "
                  << util::DispatchLevelName(level);
            }
          }
        }
      }
    }
  }
}

// The frame lengths the pitch search meets: 30 ms at every rate, plus the
// 50 ms frames of the long-frame oracle at 44.1 kHz.
std::vector<std::pair<int, size_t>> PitchFrameShapes() {
  std::vector<std::pair<int, size_t>> shapes;
  for (int sr : {8000, 16000, 22050, 44100}) {
    shapes.push_back({sr, static_cast<size_t>(0.030 * sr)});
  }
  shapes.push_back({44100, static_cast<size_t>(0.05 * 44100)});
  return shapes;
}

double FrameEnergy(std::span<const float> frame) {
  double energy = 0.0;
  for (const float v : frame) energy += static_cast<double>(v) * v;
  return energy;
}

// Returns the oracle's pitch after checking every dispatch level against it.
double ExpectPitchMatchesOracle(std::span<const float> frame, int sr,
                                const std::string& what) {
  const double want = oracle::FramePitch(frame, sr);
  const double energy = FrameEnergy(frame);
  for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
    ScopedDispatchLevel pin(level);
    internal::PitchSearch search(frame.size(), sr);
    const double got = search.Pitch(frame, energy);
    EXPECT_EQ(Bits(got), Bits(want))
        << what << " @" << sr << " n " << frame.size() << " level "
        << util::DispatchLevelName(level) << ": " << got << " vs " << want;
  }
  return want;
}

TEST(AudioOracleTest, PitchOfRandomFramesIsBitIdenticalToReference) {
  util::Rng rng(17);
  for (const auto& [sr, n] : PitchFrameShapes()) {
    size_t voiced = 0;
    for (int t = 0; t < 150; ++t) {
      // A few harmonics of a random fundamental in noise, at a random
      // level between 1e-4 and 1e3.
      const double f0 = rng.Uniform(40.0, 700.0);
      const double noise = std::pow(10.0, rng.Uniform(-3.0, 0.5));
      const double level = std::pow(10.0, rng.Uniform(-4.0, 3.0));
      const double phase = rng.Uniform(0.0, 6.3);
      std::vector<float> frame(n);
      for (size_t i = 0; i < n; ++i) {
        const double w = 2.0 * M_PI * f0 * static_cast<double>(i) / sr + phase;
        const double x = std::sin(w) + 0.5 * std::sin(2.0 * w) +
                         0.25 * std::sin(3.0 * w) + noise * rng.Gaussian();
        frame[i] = static_cast<float>(level * x);
      }
      voiced += ExpectPitchMatchesOracle(frame, sr, "harmonics") > 0.0;
      for (size_t i = 0; i < n; ++i) {
        frame[i] = static_cast<float>(level * rng.Gaussian());
      }
      ExpectPitchMatchesOracle(frame, sr, "noise");
    }
    EXPECT_GT(voiced, 30u) << sr;
    // Frames of the oracle signals, speech included.
    for (const OracleSignal& sig : OracleSignals(sr, 0.3)) {
      const std::vector<float>& s = sig.clip.samples();
      for (size_t start = 0; start + n <= s.size(); start += n / 3) {
        ExpectPitchMatchesOracle({s.data() + start, n}, sr, sig.name);
      }
    }
  }
}

// Equal impulses at p, p + a and p + a + b give three lags (a, b, a + b)
// the same autocorrelation to the bit; the first of them must win.
TEST(AudioOracleTest, PitchBreaksExactLagTiesLikeReference) {
  util::Rng rng(23);
  for (const auto& [sr, n] : PitchFrameShapes()) {
    const int min_lag = sr / 500;
    const int max_lag = sr / 60;
    for (int t = 0; t < 40; ++t) {
      const int a = rng.UniformInt(min_lag, max_lag);
      const int b =
          rng.UniformInt(min_lag, std::min(max_lag, static_cast<int>(n) - 1 - a));
      const size_t p = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(n) - 1 - (a + b)));
      const float amp = t % 2 == 0 ? 0.5f : -3.0f;
      std::vector<float> frame(n, 0.0f);
      frame[p] = amp;
      frame[p + static_cast<size_t>(a)] = amp;
      frame[p + static_cast<size_t>(a + b)] = amp;
      const double want = ExpectPitchMatchesOracle(frame, sr, "three impulses");
      EXPECT_EQ(want, static_cast<double>(sr) / std::min(a, b));
      // A periodic train: lag P ties nothing but sits just above 2P.
      const size_t period = static_cast<size_t>(a);
      std::fill(frame.begin(), frame.end(), 0.0f);
      for (size_t i = p % period; i < n; i += period) frame[i] = amp;
      ExpectPitchMatchesOracle(frame, sr, "impulse train");
    }
  }
}

// Frames on both sides of the voicing gate, within a few ulps of it: two
// impulses 1 and b at distance lag give r = b against 0.25 (1 + b^2),
// which crosses at b = 2 - sqrt(3); with low noise added the crossing
// moves, so it is found by bisection over the float b.
TEST(AudioOracleTest, PitchAtTheVoicingGateIsBitIdenticalToReference) {
  util::Rng rng(29);
  for (const auto& [sr, n] : PitchFrameShapes()) {
    const int lag = (sr / 500 + sr / 60) / 2;
    for (const double noise : {0.0, 1e-6, 1e-3}) {
      std::vector<float> base(n, 0.0f);
      for (size_t i = 0; i < n; ++i) {
        base[i] = static_cast<float>(noise * rng.Gaussian());
      }
      base[0] = 1.0f;
      auto frame_with = [&](float b) {
        std::vector<float> f = base;
        f[static_cast<size_t>(lag)] = b;
        return f;
      };
      auto voiced = [&](float b) {
        return oracle::FramePitch(frame_with(b), sr) > 0.0;
      };
      float lo = 0.2f, hi = 0.35f;
      ASSERT_FALSE(voiced(lo));
      ASSERT_TRUE(voiced(hi));
      while (std::nextafter(lo, hi) != hi) {
        const float mid = std::bit_cast<float>(
            (std::bit_cast<uint32_t>(lo) + std::bit_cast<uint32_t>(hi)) / 2);
        (voiced(mid) ? hi : lo) = mid;
      }
      size_t on = 0;
      float b = lo;
      for (int k = 0; k < 8; ++k) b = std::nextafter(b, 0.0f);
      for (int k = 0; k < 17; ++k, b = std::nextafter(b, 1.0f)) {
        const std::vector<float> frame = frame_with(b);
        on += ExpectPitchMatchesOracle(frame, sr, "gate") > 0.0;
      }
      EXPECT_GT(on, 0u);
      EXPECT_LT(on, 17u);
    }
  }
}

// Quantisation extremes: one full-scale spike over noise that rounds to
// zero, DC offsets whose lags all score close together, silence,
// subnormal samples, and NaN and infinite samples (exact chains only).
TEST(AudioOracleTest, PitchOfEdgeCaseFramesIsBitIdenticalToReference) {
  util::Rng rng(31);
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  constexpr float kSub = std::numeric_limits<float>::denorm_min();
  for (const auto& [sr, n] : PitchFrameShapes()) {
    auto noise = [&](double sigma) {
      std::vector<float> f(n);
      for (float& v : f) v = static_cast<float>(sigma * rng.Gaussian());
      return f;
    };
    for (const double sigma : {1e-5, 1e-3, 0.05}) {
      std::vector<float> f = noise(sigma);
      const int last = static_cast<int>(n) - 1;
      f[static_cast<size_t>(rng.UniformInt(0, last))] =
          rng.Bernoulli(0.5) ? 1.0f : -1.0f;
      ExpectPitchMatchesOracle(f, sr, "spike over noise");
      f = noise(sigma);
      for (size_t i = 0; i < n; ++i) {
        f[i] += static_cast<float>(0.3 * std::sin(2.0 * M_PI * 150.0 * i / sr));
      }
      f[static_cast<size_t>(rng.UniformInt(0, last))] = 3.0e38f;
      ExpectPitchMatchesOracle(f, sr, "huge spike over tone");
    }
    for (const float dc : {1e-3f, 0.5f, -0.75f, 1e30f}) {
      for (const double sigma : {0.0, 1e-4, 1e-2}) {
        std::vector<float> f = noise(sigma * std::fabs(dc));
        for (float& v : f) v += dc;
        ExpectPitchMatchesOracle(f, sr, "dc offset");
        for (size_t i = 0; i < n; ++i) {
          f[i] += static_cast<float>(
              0.1 * dc * std::sin(2.0 * M_PI * 75.0 * i / sr));
        }
        ExpectPitchMatchesOracle(f, sr, "dc offset + tone");
      }
    }
    ExpectPitchMatchesOracle(std::vector<float>(n, 0.0f), sr, "zeros");
    ExpectPitchMatchesOracle(noise(1e-7), sr, "below the energy floor");
    ExpectPitchMatchesOracle(noise(2e-6), sr, "just above the energy floor");
    ExpectPitchMatchesOracle(std::vector<float>(n, kSub), sr, "subnormals");
    {
      std::vector<float> f = noise(0.2);
      for (size_t i = 0; i < n; i += 3) f[i] = i % 2 == 0 ? kSub : -kSub;
      ExpectPitchMatchesOracle(f, sr, "subnormals in noise");
    }
    for (const float bad : {kNan, kInf, -kInf}) {
      for (const size_t at : {size_t{0}, n / 2, n - 1}) {
        std::vector<float> f = noise(0.2);
        f[at] = bad;
        ExpectPitchMatchesOracle(f, sr, "non-finite sample");
      }
    }
    {
      std::vector<float> f = noise(0.2);
      f[1] = kInf;
      f[n / 2] = -kInf;
      ExpectPitchMatchesOracle(f, sr, "+inf and -inf");
    }
  }
}

// Four different signals per transform, one per lane; each lane must
// equal the reference transform of its signal alone.
TEST(AudioOracleTest, PlannedFftIsBitIdenticalToReference) {
  constexpr size_t kLanes = util::kLanes;
  util::Rng rng(5);
  for (size_t n = 1; n <= 4096; n <<= 1) {
    std::vector<std::vector<std::complex<double>>> want(kLanes);
    std::vector<double> re(kLanes * n), im(kLanes * n);
    for (size_t l = 0; l < kLanes; ++l) {
      want[l].resize(n);
      for (size_t i = 0; i < n; ++i) {
        want[l][i] = {rng.Gaussian(), rng.Gaussian()};
        re[kLanes * i + l] = want[l][i].real();
        im[kLanes * i + l] = want[l][i].imag();
      }
      oracle::Fft(&want[l], false);
    }
    const util::FftPlan plan(n);
    for (util::DispatchLevel level : util::SupportedDispatchLevels()) {
      ScopedDispatchLevel pin(level);
      std::vector<double> got_re = re, got_im = im;
      plan.Transform(got_re, got_im);
      for (size_t l = 0; l < kLanes; ++l) {
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(Bits(got_re[kLanes * i + l]), Bits(want[l][i].real()))
              << "n " << n << " lane " << l << " bin " << i << " level "
              << util::DispatchLevelName(level);
          ASSERT_EQ(Bits(got_im[kLanes * i + l]), Bits(want[l][i].imag()))
              << "n " << n << " lane " << l << " bin " << i << " level "
              << util::DispatchLevelName(level);
        }
      }
    }
  }
}

}  // namespace
}  // namespace classminer::audio
