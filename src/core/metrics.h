#ifndef CLASSMINER_CORE_METRICS_H_
#define CLASSMINER_CORE_METRICS_H_

#include <vector>

#include "events/event_miner.h"
#include "structure/types.h"
#include "synth/ground_truth.h"

namespace classminer::core {

// ---------------------------------------------------------------------------
// Accuracy scoring against synthetic ground truth (paper Sec. 6).

// Scene detection scoring (paper Eqs. 20-21). A detected scene — a set of
// detected-shot indices — is "rightly detected" iff every member shot lies
// in the same ground-truth semantic scene. Detected shots bridge to the
// truth through their representative-frame positions.
struct SceneDetectionScore {
  int detected_scenes = 0;
  int correct_scenes = 0;
  int total_shots = 0;
  double precision = 0.0;  // Eq. 20
  double crf = 0.0;        // Eq. 21
};

// Ground-truth scene id of a detected shot (-1 outside the script).
int TruthSceneOfShot(const shot::Shot& detected,
                     const synth::GroundTruth& truth);

SceneDetectionScore ScoreSceneDetection(
    const std::vector<shot::Shot>& shots,
    const std::vector<std::vector<int>>& detected_scenes,
    const synth::GroundTruth& truth);

// Extracts the detected scenes of a mined structure as shot sets (active
// scenes only), the form the baselines also produce.
std::vector<std::vector<int>> ScenesAsShotSets(
    const structure::ContentStructure& structure);

// Event mining scoring (Table 1, Eqs. 22-23), per event category:
//   SN (selected number) = ground-truth scenes of the category that the
//      structure detected (benchmark scenes),
//   DN (detected number)  = scenes the miner assigned to the category,
//   TN (true number)      = correct assignments.
struct EventScore {
  synth::SceneKind kind = synth::SceneKind::kOther;
  int selected = 0;
  int detected = 0;
  int correct = 0;
  double precision = 0.0;  // TN / DN
  double recall = 0.0;     // TN / SN
};

struct EventScoreTable {
  EventScore presentation;
  EventScore dialog;
  EventScore clinical;
  EventScore Average() const;  // micro average across the three rows
};

// The ground-truth kind that dominates a detected scene's frames.
synth::SceneKind DominantTruthKind(const structure::ContentStructure& cs,
                                   const structure::Scene& scene,
                                   const synth::GroundTruth& truth);

events::EventType EventTypeOfKind(synth::SceneKind kind);

// Scores mined events against the script. Accumulates into `table` so
// multi-video corpora aggregate naturally (pass a zeroed table first).
void AccumulateEventScores(const structure::ContentStructure& cs,
                           const std::vector<events::EventRecord>& mined,
                           const synth::GroundTruth& truth,
                           EventScoreTable* table);

// Finalises precision/recall after accumulation.
void FinalizeEventScores(EventScoreTable* table);

// Shot detection scoring for Fig. 5-style analysis: a detected cut matches
// a truth cut within `tolerance` frames.
struct CutScore {
  int truth_cuts = 0;
  int detected_cuts = 0;
  int matched = 0;
  double precision = 0.0;
  double recall = 0.0;
};

CutScore ScoreCuts(const std::vector<int>& detected,
                   const std::vector<int>& truth, int tolerance = 2);

}  // namespace classminer::core

#endif  // CLASSMINER_CORE_METRICS_H_
