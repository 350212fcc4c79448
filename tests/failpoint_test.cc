// Fault-injection plumbing: FailPoint trigger specs, bounded retry with
// deterministic backoff, the retrying file I/O built on both, StatusSink
// suppressed-error accounting, and how a GOP decode fault reaches a fast-path
// mine (strict runs fail, degraded runs confine it to its shots).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "codec/container.h"
#include "core/cmv_pipeline.h"
#include "gop_of_frame.h"
#include "synth/video_generator.h"
#include "util/exec_context.h"
#include "util/failpoint.h"
#include "util/retry.h"
#include "util/rng.h"
#include "util/serial.h"
#include "util/status.h"

namespace classminer {
namespace {

using util::FailPoint;
using util::Status;
using util::StatusCode;

// Every test disarms globally so suites cannot leak armed sites into each
// other regardless of pass/fail order.
class FailPointTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoint::DisarmAll(); }
  void TearDown() override { FailPoint::DisarmAll(); }
};

TEST_F(FailPointTest, UnarmedSiteIsOk) {
  EXPECT_FALSE(FailPoint::AnyArmed());
  EXPECT_TRUE(FailPoint::Check("nobody.armed.this").ok());
  EXPECT_EQ(FailPoint::CheckCount("nobody.armed.this"), 0);
  EXPECT_EQ(FailPoint::FailureCount("nobody.armed.this"), 0);
}

TEST_F(FailPointTest, KnownSitesCatalogueIsSortedUniqueAndComplete) {
  const std::vector<std::string> sites = FailPoint::KnownSites();
  ASSERT_FALSE(sites.empty());
  // Sorted and duplicate-free, so chaos rigs can diff catalogues between
  // builds and binary-search for a site.
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
  EXPECT_EQ(std::adjacent_find(sites.begin(), sites.end()), sites.end());
  // Spot-check the long-standing sites and the sharded-database tier's
  // append/compaction/open sites.
  for (const char* expected :
       {"serial.read_file", "serial.atomic_write.rename",
        "index.shard.append.write", "index.shard.append.fsync",
        "index.shard.compact.write", "index.shard.compact.fsync",
        "index.shard.compact.rename", "index.shard.compact.manifest",
        "index.shard.open", "server.wire.send.torn"}) {
    EXPECT_TRUE(std::binary_search(sites.begin(), sites.end(),
                                   std::string(expected)))
        << expected << " missing from FailPoint::KnownSites()";
  }
}

TEST_F(FailPointTest, OnceFiresExactlyOnce) {
  FailPoint::Arm("test.site", FailPoint::Spec::Once(StatusCode::kDataLoss));
  EXPECT_TRUE(FailPoint::AnyArmed());
  const Status first = FailPoint::Check("test.site");
  EXPECT_EQ(first.code(), StatusCode::kDataLoss);
  // The injected message names the site so logs are traceable.
  EXPECT_NE(first.message().find("test.site"), std::string::npos);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(FailPoint::Check("test.site").ok());
  }
  EXPECT_EQ(FailPoint::CheckCount("test.site"), 6);
  EXPECT_EQ(FailPoint::FailureCount("test.site"), 1);
}

TEST_F(FailPointTest, AlwaysFiresEveryCheck) {
  FailPoint::Arm("test.site", FailPoint::Spec::Always());
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(FailPoint::Check("test.site").code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(FailPoint::FailureCount("test.site"), 4);
}

TEST_F(FailPointTest, EveryNFiresOnMultiplesOfN) {
  FailPoint::Arm("test.site", FailPoint::Spec::EveryN(3));
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(!FailPoint::Check("test.site").ok());
  const std::vector<bool> expected = {false, false, true,  false, false,
                                      true,  false, false, true};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(FailPoint::FailureCount("test.site"), 3);
}

TEST_F(FailPointTest, MaxFailuresBoundsTotalTriggers) {
  FailPoint::Spec spec = FailPoint::Spec::EveryN(2);
  spec.max_failures = 2;
  FailPoint::Arm("test.site", spec);
  int failures = 0;
  for (int i = 0; i < 20; ++i) {
    if (!FailPoint::Check("test.site").ok()) ++failures;
  }
  EXPECT_EQ(failures, 2);
}

TEST_F(FailPointTest, ProbabilityIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    FailPoint::Arm("test.site",
                   FailPoint::Spec::WithProbability(0.5, seed));
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!FailPoint::Check("test.site").ok());
    }
    return fired;
  };
  const std::vector<bool> a = run(7);
  const std::vector<bool> b = run(7);
  const std::vector<bool> c = run(8);
  EXPECT_EQ(a, b);          // same seed, same firing pattern
  EXPECT_NE(a, c);          // a different seed decorrelates
  const int fired = static_cast<int>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fired, 10);     // p=0.5 over 64 draws: loose deterministic bounds
  EXPECT_LT(fired, 54);
}

TEST_F(FailPointTest, RearmResetsCounters) {
  FailPoint::Arm("test.site", FailPoint::Spec::Once());
  EXPECT_FALSE(FailPoint::Check("test.site").ok());
  FailPoint::Arm("test.site", FailPoint::Spec::Once());
  EXPECT_FALSE(FailPoint::Check("test.site").ok());  // fires again after re-arm
  EXPECT_EQ(FailPoint::CheckCount("test.site"), 1);
  EXPECT_EQ(FailPoint::FailureCount("test.site"), 1);
}

TEST_F(FailPointTest, ScopedDisarmsOnExitAndDisarmAllClears) {
  {
    FailPoint::Scoped scoped("test.scoped", FailPoint::Spec::Always());
    EXPECT_FALSE(FailPoint::Check("test.scoped").ok());
    EXPECT_TRUE(FailPoint::AnyArmed());
  }
  EXPECT_TRUE(FailPoint::Check("test.scoped").ok());
  EXPECT_FALSE(FailPoint::AnyArmed());

  FailPoint::Arm("a", FailPoint::Spec::Always());
  FailPoint::Arm("b", FailPoint::Spec::Always());
  FailPoint::DisarmAll();
  EXPECT_FALSE(FailPoint::AnyArmed());
  EXPECT_TRUE(FailPoint::Check("a").ok());
  EXPECT_TRUE(FailPoint::Check("b").ok());
}

// ---------------------------------------------------------------------------
// Retry

TEST(RetryTest, TransientCodeTaxonomy) {
  EXPECT_TRUE(util::IsTransientCode(StatusCode::kUnavailable));
  EXPECT_FALSE(util::IsTransientCode(StatusCode::kDataLoss));
  EXPECT_FALSE(util::IsTransientCode(StatusCode::kCancelled));
  EXPECT_FALSE(util::IsTransientCode(StatusCode::kInvalidArgument));
  EXPECT_FALSE(util::IsTransientCode(StatusCode::kOk));
}

util::RetryOptions NoSleepOptions(std::vector<double>* delays = nullptr) {
  util::RetryOptions options;
  options.sleeper = [delays](double ms) {
    if (delays != nullptr) delays->push_back(ms);
  };
  return options;
}

TEST(RetryTest, SucceedsAfterTransientFailures) {
  int calls = 0;
  util::RetryStats stats;
  const Status status = util::Retry(
      NoSleepOptions(),
      [&calls]() -> Status {
        return ++calls < 3 ? Status::Unavailable("flaky") : Status::Ok();
      },
      &stats);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(stats.attempts, 3);
  EXPECT_GT(stats.total_backoff_ms, 0.0);
}

TEST(RetryTest, AttemptBudgetIsAHardBound) {
  int calls = 0;
  util::RetryOptions options = NoSleepOptions();
  options.max_attempts = 4;
  const Status status = util::Retry(options, [&calls]() -> Status {
    ++calls;
    return Status::Unavailable("always down");
  });
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(calls, 4);
}

TEST(RetryTest, NonTransientErrorReturnsImmediately) {
  for (const Status& fail :
       {Status::DataLoss("torn"), Status::Cancelled("stop"),
        Status::InvalidArgument("bad")}) {
    int calls = 0;
    util::RetryStats stats;
    const Status status = util::Retry(
        NoSleepOptions(),
        [&calls, &fail]() -> Status {
          ++calls;
          return fail;
        },
        &stats);
    EXPECT_EQ(status.code(), fail.code());
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(stats.attempts, 1);
    EXPECT_EQ(stats.total_backoff_ms, 0.0);
  }
}

TEST(RetryTest, BackoffGrowsExponentiallyWithinJitterBand) {
  std::vector<double> delays;
  util::RetryOptions options = NoSleepOptions(&delays);
  options.max_attempts = 6;
  options.initial_backoff_ms = 1.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 8.0;
  options.jitter_fraction = 0.25;
  (void)util::Retry(options,
                    []() -> Status { return Status::Unavailable("down"); });
  // Five retries follow the first attempt; pre-jitter schedule 1,2,4,8,8,
  // each scaled into [0.75, 1.25] of its nominal value and then clamped to
  // max_backoff_ms — the cap bounds the actual sleep, not the pre-jitter
  // base.
  ASSERT_EQ(delays.size(), 5u);
  const double nominal[] = {1.0, 2.0, 4.0, 8.0, 8.0};
  for (size_t i = 0; i < delays.size(); ++i) {
    EXPECT_GE(delays[i], nominal[i] * 0.75) << "delay " << i;
    EXPECT_LE(delays[i], std::min(nominal[i] * 1.25, options.max_backoff_ms))
        << "delay " << i;
  }
}

// Regression: the jitter draw must never push a delay past max_backoff_ms.
// The clamp used to run before jittering, so an upward draw on an at-cap
// delay could sleep up to jitter_fraction longer than the configured
// maximum.
TEST(RetryTest, JitteredDelayNeverExceedsConfiguredMax) {
  std::vector<double> delays;
  util::RetryOptions options = NoSleepOptions(&delays);
  options.max_attempts = 12;
  options.initial_backoff_ms = 64.0;  // at the cap from the first retry
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 64.0;
  options.jitter_fraction = 0.5;  // upward draws reach 1.5x pre-clamp
  util::RetryStats stats;
  (void)util::Retry(
      options, []() -> Status { return Status::Unavailable("down"); },
      &stats);
  ASSERT_EQ(delays.size(), 11u);
  bool saw_upward_draw = false;
  double slept = 0.0;
  for (const double delay : delays) {
    EXPECT_LE(delay, options.max_backoff_ms);
    EXPECT_GE(delay, options.max_backoff_ms * 0.5);  // downward band intact
    if (delay == options.max_backoff_ms) saw_upward_draw = true;
    slept += delay;
  }
  // With eleven draws at jitter 0.5, some land above 1.0 and clamp to
  // exactly the cap; if none did, the clamp-after-jitter path never ran.
  EXPECT_TRUE(saw_upward_draw);
  // The stats account what was actually slept, not the pre-clamp value.
  EXPECT_DOUBLE_EQ(stats.total_backoff_ms, slept);
  EXPECT_EQ(stats.attempts, 12);
}

TEST(RetryTest, JitterIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    std::vector<double> delays;
    util::RetryOptions options = NoSleepOptions(&delays);
    options.max_attempts = 5;
    options.jitter_seed = seed;
    (void)util::Retry(options,
                      []() -> Status { return Status::Unavailable("down"); });
    return delays;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));
}

TEST(RetryTest, RetryOrReturnsValueAfterTransientFailure) {
  int calls = 0;
  const util::StatusOr<int> result = util::RetryOr<int>(
      NoSleepOptions(), [&calls]() -> util::StatusOr<int> {
        if (++calls == 1) return Status::Unavailable("warming up");
        return 42;
      });
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
  EXPECT_EQ(calls, 2);
}

// ---------------------------------------------------------------------------
// Retrying file I/O driven through the serial.* fail points.

class FileRetryTest : public FailPointTest {};

TEST_F(FileRetryTest, ReadFileAbsorbsOneTransientFault) {
  const std::string path = ::testing::TempDir() + "/retry_read.bin";
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  ASSERT_TRUE(util::WriteFile(path, payload).ok());

  FailPoint::Arm("serial.read_file",
                 FailPoint::Spec::Once(StatusCode::kUnavailable));
  const util::StatusOr<std::vector<uint8_t>> bytes = util::ReadFile(path);
  ASSERT_TRUE(bytes.ok());
  EXPECT_EQ(*bytes, payload);
  EXPECT_EQ(FailPoint::CheckCount("serial.read_file"), 2);  // fail + retry
}

TEST_F(FileRetryTest, WriteFileAbsorbsTransientFaultsUpToTheBudget) {
  const std::string path = ::testing::TempDir() + "/retry_write.bin";
  FailPoint::Spec spec = FailPoint::Spec::Always(StatusCode::kUnavailable);
  spec.max_failures = 2;  // within the 3-attempt file budget
  FailPoint::Arm("serial.write_file", spec);
  EXPECT_TRUE(util::WriteFile(path, {9, 9, 9}).ok());
  EXPECT_EQ(FailPoint::FailureCount("serial.write_file"), 2);

  // A persistent outage exhausts the budget and surfaces kUnavailable.
  FailPoint::Arm("serial.write_file", FailPoint::Spec::Always());
  EXPECT_EQ(util::WriteFile(path, {1}).code(), StatusCode::kUnavailable);
  EXPECT_EQ(FailPoint::CheckCount("serial.write_file"), 3);
}

TEST_F(FileRetryTest, DeterministicFaultIsNotRetried) {
  const std::string path = ::testing::TempDir() + "/retry_dataloss.bin";
  ASSERT_TRUE(util::WriteFile(path, {5}).ok());
  FailPoint::Arm("serial.read_file",
                 FailPoint::Spec::Always(StatusCode::kDataLoss));
  EXPECT_EQ(util::ReadFile(path).status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(FailPoint::CheckCount("serial.read_file"), 1);
}

// ---------------------------------------------------------------------------
// Atomic write: the staged sequence (tmp write -> fsync -> rename) has one
// injectable site per step; a crash at any of them must leave the previous
// destination bytes intact and no temp file behind.

class AtomicWriteTest : public FailPointTest {
 protected:
  // TempDir contents persist across test-binary runs; a stale destination
  // from a previous run would break "file does not exist yet" assertions.
  std::string FreshPath(const std::string& stem) {
    const std::string path = ::testing::TempDir() + "/" + stem;
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    return path;
  }
};

const char* const kAtomicSites[] = {"serial.atomic_write.tmp_write",
                                    "serial.atomic_write.fsync",
                                    "serial.atomic_write.rename"};

TEST_F(AtomicWriteTest, CrashAtEverySiteLeavesOldBytesAndNoTemp) {
  const std::string path = FreshPath("atomic_crash.bin");
  const std::vector<uint8_t> old_bytes = {1, 1, 1};
  ASSERT_TRUE(util::AtomicWriteFile(path, old_bytes).ok());
  for (const char* site : kAtomicSites) {
    FailPoint::Arm(site, FailPoint::Spec::Once(StatusCode::kDataLoss));
    EXPECT_EQ(util::AtomicWriteFile(path, {2, 2, 2}).code(),
              StatusCode::kDataLoss)
        << site;
    FailPoint::DisarmAll();
    // The destination still holds the complete previous bytes...
    const util::StatusOr<std::vector<uint8_t>> read = util::ReadFile(path);
    ASSERT_TRUE(read.ok()) << site;
    EXPECT_EQ(*read, old_bytes) << site;
    // ...and the staging file was unlinked.
    EXPECT_EQ(util::ReadFile(path + ".tmp").status().code(),
              StatusCode::kNotFound)
        << site;
  }
}

TEST_F(AtomicWriteTest, TransientFaultAtEverySiteIsAbsorbed) {
  const std::string path = FreshPath("atomic_transient.bin");
  for (const char* site : kAtomicSites) {
    FailPoint::Arm(site, FailPoint::Spec::Once(StatusCode::kUnavailable));
    EXPECT_TRUE(util::AtomicWriteFile(path, {7}).ok()) << site;
    FailPoint::DisarmAll();
  }
}

// ---------------------------------------------------------------------------
// StatusSink suppressed-error accounting.

TEST(StatusSinkTest, CountsSuppressedErrorsAfterFirstWins) {
  util::StatusSink sink;
  EXPECT_EQ(sink.suppressed_count(), 0);
  sink.Record(Status::Ok());
  sink.Record(Status::DataLoss("first"));
  sink.Record(Status::Internal("second"));
  sink.Record(Status::Ok());  // OK records are never suppression
  sink.Record(Status::Unavailable("third"));
  EXPECT_EQ(sink.Get().code(), StatusCode::kDataLoss);
  EXPECT_EQ(sink.suppressed_count(), 2);
}

// ---------------------------------------------------------------------------
// GOP decode faults on the fast path's planned decode.

// Two scenes of four shots on a small frame, so several GOPs hold a
// representative frame.
codec::CmvFile MiningFixture() {
  synth::VideoScript script;
  script.name = "decode-faults";
  script.seed = 21;
  script.width = 64;
  script.height = 48;
  script.scenes.push_back(
      {synth::SceneKind::kPresentation, 4, 0, 0, -1, 1.0});
  script.scenes.push_back({synth::SceneKind::kDialog, 4, 1, 0, 1, 1.0});
  return core::PackGeneratedVideo(synth::GenerateVideo(script));
}

class PlannedDecodeFaultTest : public FailPointTest {};

TEST_F(PlannedDecodeFaultTest, TransientFaultFailsStrictMine) {
  const codec::CmvFile file = MiningFixture();
  core::MiningOptions options;
  options.thread_count = 2;
  ASSERT_TRUE(core::MineCmvFileFast(file, options).ok());

  FailPoint::Arm("codec.gop_reader.decode_gop",
                 FailPoint::Spec::Once(StatusCode::kUnavailable));
  EXPECT_EQ(core::MineCmvFileFast(file, options).status().code(),
            StatusCode::kUnavailable);
  // Nothing sticks: the fault fired once, so the next mine succeeds.
  EXPECT_TRUE(core::MineCmvFileFast(file, options).ok());
}

TEST_F(PlannedDecodeFaultTest, DataLossInDegradedModeStaysWithItsShots) {
  const codec::CmvFile file = MiningFixture();
  core::MiningOptions options;
  options.thread_count = 1;  // the one-shot fault hits the first needed GOP
  options.failure_policy = core::FailurePolicy::kDegraded;
  const util::StatusOr<core::MiningResult> pristine =
      core::MineCmvFileFast(file, options);
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();

  FailPoint::Arm("codec.gop_reader.decode_gop",
                 FailPoint::Spec::Once(StatusCode::kDataLoss));
  const util::StatusOr<core::MiningResult> mined =
      core::MineCmvFileFast(file, options);
  ASSERT_TRUE(mined.ok()) << mined.status().ToString();
  EXPECT_TRUE(mined->degraded);
  EXPECT_TRUE(mined->stage_failures.empty());
  EXPECT_EQ(mined->salvage.gops_skipped, 1);
  const util::StageMetrics* decode = mined->metrics.Find("decode");
  ASSERT_NE(decode, nullptr);
  EXPECT_EQ(decode->Counter("failed_gops"), 1);

  const std::vector<shot::Shot>& shots = mined->structure.shots;
  ASSERT_EQ(shots.size(), pristine->structure.shots.size());
  ASSERT_GE(GopOfFrame(file, shots.back().rep_frame),
            GopOfFrame(file, shots.front().rep_frame) + 1);
  const int failed_gop = GopOfFrame(file, shots.front().rep_frame);
  for (size_t i = 0; i < shots.size(); ++i) {
    SCOPED_TRACE("shot " + std::to_string(i));
    const features::ShotFeatures& expected =
        GopOfFrame(file, shots[i].rep_frame) == failed_gop
            ? features::ShotFeatures{}
            : pristine->structure.shots[i].features;
    EXPECT_EQ(shots[i].features.histogram, expected.histogram);
    EXPECT_EQ(shots[i].features.tamura, expected.tamura);
  }
}

}  // namespace
}  // namespace classminer
