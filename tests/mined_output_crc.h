// MinedOutputCrc: one checksum over a mine's output, for tests that pin
// mining results bit for bit (golden values, thread counts, shared pools).

#ifndef CLASSMINER_TESTS_MINED_OUTPUT_CRC_H_
#define CLASSMINER_TESTS_MINED_OUTPUT_CRC_H_

#include <cstdint>
#include <vector>

#include "core/classminer.h"
#include "index/database.h"
#include "index/persist.h"
#include "util/crc32.h"

namespace classminer {

// Chains the bytes of one scalar field into a CRC. Structs are hashed
// field by field so their padding never reaches the checksum.
template <typename T>
inline uint32_t CrcField(const T& value, uint32_t crc) {
  return util::Crc32(reinterpret_cast<const uint8_t*>(&value), sizeof(T),
                     crc);
}

// CRC-32 of everything a mine produces for the index and the event rules:
// the stored entry (structure + events), then every shot's cues, then every
// shot's audio analysis including its MFCC matrix.
inline uint32_t MinedOutputCrc(const core::MiningResult& mined) {
  index::VideoDatabase one;
  one.AddVideo("v", mined.structure, mined.events, mined.degraded);
  uint32_t crc = util::Crc32(index::SerializeDatabase(one));
  for (const cues::FrameCues& c : mined.shot_cues) {
    crc = CrcField(c.special, crc);
    crc = CrcField(c.has_face, crc);
    crc = CrcField(c.face_closeup, crc);
    crc = CrcField(c.max_face_fraction, crc);
    crc = CrcField(c.has_skin_region, crc);
    crc = CrcField(c.skin_closeup, crc);
    crc = CrcField(c.max_skin_fraction, crc);
    crc = CrcField(c.has_blood, crc);
    crc = CrcField(c.max_blood_fraction, crc);
  }
  for (const audio::ShotAudioAnalysis& a : mined.shot_audio) {
    crc = CrcField(a.shot_index, crc);
    crc = CrcField(a.analyzable, crc);
    crc = CrcField(a.has_speech, crc);
    crc = CrcField(a.speech_margin, crc);
    crc = CrcField(a.rep_features, crc);
    crc = CrcField(a.mfcc.rows(), crc);
    crc = CrcField(a.mfcc.cols(), crc);
    const std::vector<double>& data = a.mfcc.data();
    crc = util::Crc32(reinterpret_cast<const uint8_t*>(data.data()),
                      data.size() * sizeof(double), crc);
  }
  return crc;
}

}  // namespace classminer

#endif  // CLASSMINER_TESTS_MINED_OUTPUT_CRC_H_
