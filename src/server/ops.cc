#include "server/ops.h"

#include <cstdarg>
#include <cstdio>
#include <string_view>
#include <utility>

#include "core/cmv_pipeline.h"
#include "core/repair.h"
#include "index/browser.h"
#include "index/concept.h"
#include "index/database.h"
#include "index/hier_index.h"
#include "index/repair.h"
#include "index/shard.h"
#include "skim/playback.h"
#include "skim/skimmer.h"
#include "util/pipeline_metrics.h"
#include "util/salvage.h"

namespace classminer::server {
namespace {

// The one report formatter: vprintf-append of any length. A line that
// does not fit the stack buffer is formatted again, straight into `out`,
// at the length the first vsnprintf returned — never cut short.
void AppendV(std::string* out, const char* fmt, va_list args) {
  va_list retry;
  va_copy(retry, args);
  char buffer[512];
  const int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  if (n > 0 && static_cast<size_t>(n) < sizeof(buffer)) {
    out->append(buffer, static_cast<size_t>(n));
  } else if (n > 0) {
    const size_t old_size = out->size();
    out->resize(old_size + static_cast<size_t>(n) + 1);
    std::vsnprintf(out->data() + old_size, static_cast<size_t>(n) + 1, fmt,
                   retry);
    out->resize(old_size + static_cast<size_t>(n));  // drop the NUL
  }
  va_end(retry);
}

// printf-append into the report string; every format below matches what the
// CLI historically printed, so the report stays stable across the refactor.
void Appendf(std::string* out, const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  AppendV(out, fmt, args);
  va_end(args);
}

}  // namespace

void ReportStream::Append(const std::string& text) {
  report_.append(text);
  ForwardCompletedChunks();
}

void ReportStream::Appendf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  AppendV(&report_, fmt, args);
  va_end(args);
  ForwardCompletedChunks();
}

void ReportStream::ForwardCompletedChunks() {
  if (!sink_) return;
  while (report_.size() - streamed_ >= chunk_bytes_) {
    sink_(report_.substr(streamed_, chunk_bytes_));
    streamed_ += chunk_bytes_;
  }
}

namespace {

// Binds an op's OpResult to its report stream: the accumulated text becomes
// the report, the forwarded prefix is recorded so the caller ships only the
// tail in its final chunk.
void FinishReport(const ReportStream& stream, OpResult* out) {
  out->report = stream.report();
  out->streamed_bytes = stream.streamed_bytes();
}

void Note(OpDiagnostics* diag, std::string line) {
  if (diag != nullptr) diag->notes.push_back(std::move(line));
}

// Degradation details are advisory (which stages were lost, what salvage
// recovered), so they go to the diagnostics channel, not the report.
void NoteDegradation(OpDiagnostics* diag, const std::string& path,
                     const core::MiningResult& result) {
  if (!result.degraded || diag == nullptr) return;
  Note(diag, path + ": degraded result");
  for (const core::StageFailure& f : result.stage_failures) {
    Note(diag, "  stage " + f.stage + " " + f.status.ToString());
  }
  const std::string salvage = result.salvage.ToString();
  if (!salvage.empty()) Note(diag, "  " + salvage);
}

// Labels ("<subject><what>:") and renders a cost table only when someone
// reads the diagnostics; the daemon passes none.
void NoteMetrics(OpDiagnostics* diag, std::string_view subject,
                 std::string_view what, const util::PipelineMetrics& metrics) {
  if (diag == nullptr) return;
  std::string entry(subject);
  entry.append(what).append(":\n").append(metrics.ToString());
  diag->metrics.push_back(std::move(entry));
}

// Loads and mines one container. The default is the resilient path —
// salvage parsing plus the degraded failure policy — so damaged archives
// still yield flagged results; `strict` restores all-or-nothing semantics.
//
// `structure_only` comes from the op, never from env.mining: only SkimOp
// sets it, and only when nobody reads the mining result, because its
// report is built from the content structure alone. So a mine or browse
// report always carries its events, whatever ServerOptions::mining holds,
// and the result cache's CanonicalMiningFingerprint can ignore the field:
// the reports it keys are the same with or without it.
util::Status LoadAndMine(const std::string& path, const OpEnv& env,
                         bool strict, bool fast, bool structure_only,
                         codec::CmvFile* file, core::MiningResult* result) {
  util::SalvageReport salvage;
  util::StatusOr<codec::CmvFile> loaded =
      strict ? codec::CmvFile::LoadFromFile(path)
             : codec::CmvFile::LoadFromFileBestEffort(path, &salvage);
  if (!loaded.ok()) {
    return {loaded.status().code(),
            path + ": " + loaded.status().message()};
  }
  core::MiningOptions options = env.mining;
  if (!strict) options.failure_policy = core::FailurePolicy::kDegraded;
  options.structure_only = structure_only;
  util::StatusOr<core::MiningResult> mined =
      fast ? core::MineCmvFileFast(*loaded, options, env.ctx)
           : core::MineCmvFile(*loaded, options, env.ctx);
  if (!mined.ok()) {
    return {mined.status().code(),
            path + ": mining failed: " + mined.status().message()};
  }
  *file = std::move(*loaded);
  *result = std::move(*mined);
  result->salvage.Merge(salvage);
  if (result->salvage.salvaged) result->degraded = true;
  return util::Status::Ok();
}

}  // namespace

OpResult MineOp(const std::string& path, bool fast, bool strict,
                const OpEnv& env, OpDiagnostics* diag) {
  OpResult out;
  codec::CmvFile file;
  core::MiningResult result;
  out.status = LoadAndMine(path, env, strict, fast, /*structure_only=*/false,
                           &file, &result);
  if (!out.ok()) return out;
  NoteDegradation(diag, path, result);

  ReportStream stream(env.chunk_sink, env.chunk_bytes);
  const structure::ContentStructure& cs = result.structure;
  stream.Appendf(
      "%s: %zu shots, %zu groups, %d scenes, %zu clustered scenes "
      "(CRF %.3f)\n",
      file.name.c_str(), cs.shots.size(), cs.groups.size(),
      cs.ActiveSceneCount(), cs.clustered_scenes.size(),
      cs.CompressionRateFactor());
  for (const events::EventRecord& rec : result.events) {
    const structure::Scene& scene =
        cs.scenes[static_cast<size_t>(rec.scene_index)];
    stream.Appendf("  scene %2d: %-18s %2d shots (groups %d..%d)\n",
                   scene.index, events::EventTypeName(rec.type),
                   cs.ShotCountOfScene(scene), scene.start_group,
                   scene.end_group);
  }
  NoteMetrics(diag, path, " per-stage metrics", result.metrics);
  FinishReport(stream, &out);
  return out;
}

OpResult BrowseOp(const std::vector<std::string>& paths, bool strict,
                  const index::UserCredential& user, const OpEnv& env,
                  OpDiagnostics* diag) {
  OpResult out;
  index::VideoDatabase db;
  for (const std::string& path : paths) {
    codec::CmvFile file;
    core::MiningResult result;
    out.status = LoadAndMine(path, env, strict, /*fast=*/false,
                             /*structure_only=*/false, &file, &result);
    if (!out.ok()) return out;
    NoteDegradation(diag, path, result);
    NoteMetrics(diag, path, " pipeline cost", result.metrics);
    db.AddVideo(file.name, std::move(result.structure),
                std::move(result.events), result.degraded);
  }
  const index::ConceptHierarchy concepts =
      index::ConceptHierarchy::MedicalDefault();
  // Shared (per-database) costs — index construction and browse-tree
  // assembly — land in one registry through the context.
  util::PipelineMetrics shared;
  const util::ExecutionContext ctx(nullptr, &shared,
                                   env.ctx.cancellation());
  const index::HierarchicalIndex hier(&db, &concepts,
                                      index::HierarchicalIndex::Options(),
                                      ctx);
  const index::AccessController access(&concepts);
  const auto tree = index::BuildBrowseTree(db, concepts, access, user, ctx);
  ReportStream stream(env.chunk_sink, env.chunk_bytes);
  stream.Append(index::RenderBrowseTree(tree));
  if (db.DegradedCount() > 0) {
    stream.Appendf("%d of %d video(s) indexed degraded\n",
                   db.DegradedCount(), db.video_count());
  }
  NoteMetrics(diag, "shared index/browse cost", "", shared);
  FinishReport(stream, &out);
  return out;
}

OpResult SkimOp(const std::string& path, int level, const OpEnv& env,
                OpDiagnostics* diag, codec::CmvFile* file_out,
                core::MiningResult* result_out) {
  OpResult out;
  if (level < 1 || level > skim::kSkimLevels) {
    out.status = util::Status::InvalidArgument(
        "skim level must be in [1, " + std::to_string(skim::kSkimLevels) +
        "], got " + std::to_string(level));
    return out;
  }
  // The skim report reads only the content structure; a caller that takes
  // the mining result (the CLI's exports read its events) gets a full mine.
  codec::CmvFile file;
  core::MiningResult result;
  out.status = LoadAndMine(path, env, /*strict=*/false, /*fast=*/false,
                           /*structure_only=*/result_out == nullptr, &file,
                           &result);
  if (!out.ok()) return out;
  NoteDegradation(diag, path, result);
  // Build the skim through a metrics-carrying context so the cost table
  // includes a "skim" row alongside the mining stages.
  const util::ExecutionContext skim_ctx(nullptr, &result.metrics, nullptr,
                                        nullptr);
  const skim::ScalableSkim sk(&result.structure, skim_ctx);

  ReportStream stream(env.chunk_sink, env.chunk_bytes);
  stream.Appendf("%-6s %-12s %-10s %s\n", "level", "skim shots", "frames",
                 "FCR");
  for (int lvl = skim::kSkimLevels; lvl >= 1; --lvl) {
    const skim::SkimTrack& t = sk.track(lvl);
    stream.Appendf("%-6d %-12zu %-10ld %.3f%s\n", lvl,
                   t.shot_indices.size(), t.frame_count, sk.Fcr(lvl),
                   lvl == level ? "  <-" : "");
  }
  const auto plan = skim::BuildPlaybackPlan(sk, level, file.fps);
  stream.Appendf("level %d plays %.1f s of %.1f s\n", level,
                 skim::PlanDurationSeconds(plan), file.frame_count() / file.fps);
  NoteMetrics(diag, path, " per-stage metrics", result.metrics);
  FinishReport(stream, &out);
  if (file_out != nullptr) *file_out = std::move(file);
  if (result_out != nullptr) *result_out = std::move(result);
  return out;
}

OpResult VerifyOp(const std::string& db_path) {
  OpResult out;
  const index::VerifyReport report = index::VerifyDatabaseFile(db_path);
  Appendf(&out.report, "%s: %s\n", db_path.c_str(),
          report.ToString().c_str());
  out.status = report.clean()
                   ? util::Status::Ok()
                   : util::Status::DataLoss(db_path + ": database not clean");
  return out;
}

OpResult RepairOp(const std::string& db_path, const OpEnv& env,
                  OpDiagnostics* diag) {
  OpResult out;
  util::SalvageReport salvage;
  util::StatusOr<index::RepairReport> report = index::RepairDatabaseFile(
      db_path, core::MakeCmvRemineFn(env.media_dir, env.mining, env.ctx),
      &salvage);
  if (!report.ok()) {
    out.status = {report.status().code(),
                  db_path + ": " + report.status().message()};
    return out;
  }
  Appendf(&out.report, "%s: %s\n", db_path.c_str(),
          report->ToString().c_str());
  for (const std::string& note : report->notes) {
    Appendf(&out.report, "  %s\n", note.c_str());
  }
  const std::string recovery = salvage.ToString();
  if (!recovery.empty()) {
    Appendf(&out.report, "  open: %s\n", recovery.c_str());
  }
  out.status = report->failed == 0
                   ? util::Status::Ok()
                   : util::Status::DataLoss(
                         db_path + ": " + std::to_string(report->failed) +
                         " entr" + (report->failed == 1 ? "y" : "ies") +
                         " left unrepaired");
  (void)diag;  // repair details are part of the report itself
  return out;
}

OpResult CompactOp(const std::string& db_path, int shard, bool force) {
  OpResult out;
  const util::StatusOr<std::vector<index::ShardedDatabase::CompactionReport>>
      reports = index::CompactDatabaseFile(db_path, shard, force);
  if (!reports.ok()) {
    out.status = {reports.status().code(),
                  db_path + ": " + reports.status().message()};
    return out;
  }
  uint64_t folded = 0;
  uint64_t dropped = 0;
  for (const index::ShardedDatabase::CompactionReport& report : *reports) {
    Appendf(&out.report, "%s: %s\n", db_path.c_str(),
            report.ToString().c_str());
    if (!report.skipped) {
      ++folded;
      dropped += report.dead_dropped;
    }
  }
  Appendf(&out.report,
          "%s: compacted %llu shard(s), dropped %llu dead record(s)\n",
          db_path.c_str(), static_cast<unsigned long long>(folded),
          static_cast<unsigned long long>(dropped));
  return out;
}

}  // namespace classminer::server
