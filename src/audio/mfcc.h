#ifndef CLASSMINER_AUDIO_MFCC_H_
#define CLASSMINER_AUDIO_MFCC_H_

#include "audio/audio_buffer.h"
#include "util/matrix.h"

namespace classminer::audio {

// 14-dimensional mel-frequency cepstral coefficients (paper Sec. 4.2):
// 30 ms sliding windows with 20 ms overlap (10 ms hop), pre-emphasis 0.97,
// Hamming window, 26 mel filters from 60 Hz to Nyquist, log, DCT.
inline constexpr int kMfccDims = 14;

// Returns an (num_windows x 14) matrix of MFCC vectors; empty (0 x 14) when
// the clip is shorter than one window.
util::Matrix ComputeMfcc(const AudioBuffer& clip);

}  // namespace classminer::audio

#endif  // CLASSMINER_AUDIO_MFCC_H_
