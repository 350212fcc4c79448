// classminer — command-line front end over the library. Covers the full
// archive workflow on CMV containers:
//
//   classminer generate <out.cmv> [--title NAME] [--seed N] [--degraded]
//   classminer mine <in.cmv> [--threads N] [--strict] [--fast]
//   classminer search <in.cmv> <presentation|dialog|clinical_operation>
//   classminer skim <in.cmv> [--level N] [--html out.html]
//                            [--storyboard out.ppm]
//   classminer browse [--clearance N] [--strict] <in.cmv> [more.cmv ...]
//   classminer index <library> [--strict] [--threads N] [--shards N]
//                              [--append] <in.cmv ...>
//   classminer verify <library>
//   classminer repair <library> [--media DIR] [--threads N]
//   classminer compact <library> [--shard K] [--force]
//   classminer failpoints
//
// `generate` synthesises one of the five corpus titles (or the quickstart
// clip when no title is given) and encodes it; every other command decodes
// and mines a container on the fly, on one pool per process of --threads
// threads (hardware concurrency by default or where there is no flag).
//
// By default containers load through salvage parsing and mine under the
// degraded failure policy, so a truncated or bit-flipped archive still
// yields a (flagged) result; --strict restores all-or-nothing semantics.
//
// `index` persists the mined results as a CMSL shard library: a CMSM root
// manifest at <library> plus one append log per shard at
// <library>.shard<k>. A fresh
// path gets one shard unless --shards N says otherwise; an existing library
// keeps its shard count; --append upserts into it entry by entry. `verify`
// audits a library (strict per-shard parse, per-entry checksums, degraded
// count, manifest generations) and exits non-zero unless it is pristine;
// `repair` re-mines every degraded entry from its source container
// <DIR>/<name>.cmv and rewrites the library when it healed anything (or
// when the open itself needed a backup generation or a salvage parse).
// The library is the only database format read: verify, repair and compact
// refuse any other file untouched.

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "codec/decoder.h"
#include "core/cmv_pipeline.h"
#include "index/shard.h"
#include "parse_number.h"
#include "server/ops.h"
#include "skim/storyboard.h"
#include "skim/summary.h"
#include "synth/corpus.h"
#include "util/failpoint.h"
#include "util/threadpool.h"

namespace {

using namespace classminer;

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  classminer generate <out.cmv> [--title NAME] [--seed N] "
      "[--degraded]\n"
      "  classminer mine <in.cmv> [--threads N] [--strict] [--fast]\n"
      "  classminer search <in.cmv> "
      "<presentation|dialog|clinical_operation>\n"
      "  classminer skim <in.cmv> [--level N] [--html out.html] "
      "[--storyboard out.ppm]\n"
      "  classminer browse [--clearance N] [--strict] <in.cmv> "
      "[more.cmv ...]\n"
      "  classminer index <library> [--strict] [--threads N] [--shards N] "
      "[--append] <in.cmv ...>\n"
      "  classminer verify <library>\n"
      "  classminer repair <library> [--media DIR] [--threads N]\n"
      "  classminer compact <library> [--shard K] [--force]\n"
      "  classminer failpoints\n");
  return 2;
}

// Loads and mines one container on `ctx`. The default is the resilient
// path — salvage parsing plus the degraded failure policy — so damaged
// archives still yield flagged results; `strict` restores all-or-nothing
// semantics.
bool LoadAndMine(const std::string& path, const util::ExecutionContext& ctx,
                 bool strict, codec::CmvFile* file,
                 core::MiningResult* result) {
  util::SalvageReport salvage;
  util::StatusOr<codec::CmvFile> loaded =
      strict ? codec::CmvFile::LoadFromFile(path)
             : codec::CmvFile::LoadFromFileBestEffort(path, &salvage);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    return false;
  }
  core::MiningOptions options;
  if (!strict) options.failure_policy = core::FailurePolicy::kDegraded;
  util::StatusOr<core::MiningResult> mined =
      core::MineCmvFile(*loaded, options, ctx);
  if (!mined.ok()) {
    std::fprintf(stderr, "%s: mining failed: %s\n", path.c_str(),
                 mined.status().ToString().c_str());
    return false;
  }
  *file = std::move(*loaded);
  *result = std::move(*mined);
  result->salvage.Merge(salvage);
  if (result->salvage.salvaged) result->degraded = true;
  return true;
}

// Advisory output from the shared operation layer — degradation notes and
// per-stage timing — goes to stderr: stdout carries only the deterministic
// report, byte-identical to the classminerd response body.
void PrintDiagnostics(const server::OpDiagnostics& diag) {
  for (const std::string& note : diag.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }
  for (const std::string& table : diag.metrics) {
    std::fprintf(stderr, "%s", table.c_str());
  }
}

// Prints a failed operation and converts it to an exit code.
int FinishOp(const server::OpResult& op, const server::OpDiagnostics& diag) {
  std::printf("%s", op.report.c_str());
  PrintDiagnostics(diag);
  if (!op.ok()) {
    std::fprintf(stderr, "%s\n", op.status.ToString().c_str());
    return 1;
  }
  return 0;
}

// One stderr block describing what a degraded run lost (silent otherwise).
void ReportDegradation(const std::string& path,
                       const core::MiningResult& result) {
  if (!result.degraded) return;
  std::fprintf(stderr, "%s: degraded result\n", path.c_str());
  for (const core::StageFailure& f : result.stage_failures) {
    std::fprintf(stderr, "  stage %-8s %s\n", f.stage.c_str(),
                 f.status.ToString().c_str());
  }
  const std::string salvage = result.salvage.ToString();
  if (!salvage.empty()) std::fprintf(stderr, "  %s\n", salvage.c_str());
}

int CmdGenerate(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const std::string out = args[0];
  std::string title;
  uint64_t seed = 11;
  bool degraded = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--title" && i + 1 < args.size()) {
      title = args[++i];
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      if (!ParseNumber(args[++i], &seed)) return Usage();
    } else if (args[i] == "--degraded") {
      degraded = true;
    } else {
      return Usage();
    }
  }

  synth::VideoScript script;
  if (title.empty()) {
    script = synth::QuickScript(seed);
  } else {
    synth::CorpusOptions copts;
    copts.seed = seed;
    copts.degraded = degraded;
    bool found = false;
    for (synth::VideoScript& s : synth::MedicalCorpusScripts(copts)) {
      if (s.name == title) {
        script = std::move(s);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown title '%s'; corpus titles:\n",
                   title.c_str());
      for (const synth::VideoScript& s : synth::MedicalCorpusScripts()) {
        std::fprintf(stderr, "  %s\n", s.name.c_str());
      }
      return 1;
    }
  }

  const synth::GeneratedVideo g = synth::GenerateVideo(script);
  const codec::CmvFile file = core::PackGeneratedVideo(g);
  const util::Status status = file.SaveToFile(out);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d frames @ %.1f fps, %zu kB video payload, "
              "%.1f s audio\n",
              out.c_str(), file.frame_count(), file.fps,
              file.VideoPayloadBytes() / 1024,
              g.audio.DurationSeconds());
  return 0;
}

int CmdMine(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  int threads = util::ThreadPool::DefaultThreads();
  bool strict = false;
  bool fast = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--threads" && i + 1 < args.size()) {
      if (!ParseNumber(args[++i], &threads)) return Usage();
    } else if (args[i] == "--strict") {
      strict = true;
    } else if (args[i] == "--fast") {
      fast = true;
    } else {
      return Usage();
    }
  }
  util::ThreadPool pool(threads);
  server::OpEnv env;
  env.ctx = &pool;
  server::OpDiagnostics diag;
  return FinishOp(server::MineOp(args[0], fast, strict, env, &diag), diag);
}

int CmdSearch(const std::vector<std::string>& args) {
  if (args.size() != 2) return Usage();
  events::EventType wanted;
  if (args[1] == "presentation") {
    wanted = events::EventType::kPresentation;
  } else if (args[1] == "dialog") {
    wanted = events::EventType::kDialog;
  } else if (args[1] == "clinical_operation") {
    wanted = events::EventType::kClinicalOperation;
  } else {
    return Usage();
  }

  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  codec::CmvFile file;
  core::MiningResult result;
  if (!LoadAndMine(args[0], &pool, /*strict=*/false, &file, &result)) return 1;

  int hits = 0;
  for (const events::EventRecord& rec : result.events) {
    if (rec.type != wanted) continue;
    const structure::Scene& scene =
        result.structure.scenes[static_cast<size_t>(rec.scene_index)];
    const std::vector<int> shots =
        result.structure.ShotIndicesOfScene(scene);
    const shot::Shot& first =
        result.structure.shots[static_cast<size_t>(shots.front())];
    const shot::Shot& last =
        result.structure.shots[static_cast<size_t>(shots.back())];
    std::printf("scene %d: %.1fs - %.1fs (%zu shots)\n", scene.index,
                first.StartSeconds(file.fps), last.EndSeconds(file.fps),
                shots.size());
    ++hits;
  }
  std::printf("%d %s scene(s)\n", hits, events::EventTypeName(wanted));
  return 0;
}

int CmdSkim(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  int level = 3;
  std::string html_path, storyboard_path;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--level" && i + 1 < args.size()) {
      if (!ParseNumber(args[++i], &level)) return Usage();
    } else if (args[i] == "--html" && i + 1 < args.size()) {
      html_path = args[++i];
    } else if (args[i] == "--storyboard" && i + 1 < args.size()) {
      storyboard_path = args[++i];
    } else {
      return Usage();
    }
  }
  if (level < 1 || level > skim::kSkimLevels) return Usage();

  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  server::OpEnv env;
  env.ctx = &pool;
  server::OpDiagnostics diag;
  codec::CmvFile file;
  core::MiningResult result;
  // The exports read the mined events, so only they take the mining result
  // (a full mine); the table alone needs the content structure only.
  const bool exports = !html_path.empty() || !storyboard_path.empty();
  const server::OpResult op =
      exports ? server::SkimOp(args[0], level, env, &diag, &file, &result)
              : server::SkimOp(args[0], level, env, &diag);
  std::printf("%s", op.report.c_str());
  if (!op.ok()) {
    PrintDiagnostics(diag);
    std::fprintf(stderr, "%s\n", op.status.ToString().c_str());
    return 1;
  }

  if (exports) {
    // Exports rebuild the skim from the op's mining result (no re-mine).
    const skim::ScalableSkim sk(&result.structure);
    if (!html_path.empty()) {
      const util::Status status = skim::ExportHtmlSummary(
          result.structure, result.events, sk, file.name, html_path);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", html_path.c_str());
    }
    if (!storyboard_path.empty()) {
      util::StatusOr<media::Video> video = codec::DecodeVideo(file);
      if (!video.ok()) return 1;
      const util::Status status = skim::ExportStoryboard(
          sk, level, *video, result.events, storyboard_path);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      std::printf("wrote %s\n", storyboard_path.c_str());
    }
  }
  PrintDiagnostics(diag);
  return 0;
}

int CmdBrowse(const std::vector<std::string>& args) {
  int clearance = 3;
  bool strict = false;
  std::vector<std::string> paths;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--clearance" && i + 1 < args.size()) {
      if (!ParseNumber(args[++i], &clearance)) return Usage();
    } else if (args[i] == "--strict") {
      strict = true;
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.empty()) return Usage();

  index::UserCredential user;
  user.name = "cli";
  user.clearance = clearance;
  util::ThreadPool pool(util::ThreadPool::DefaultThreads());
  server::OpEnv env;
  env.ctx = &pool;
  server::OpDiagnostics diag;
  return FinishOp(server::BrowseOp(paths, strict, user, env, &diag), diag);
}

int CmdIndex(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  const std::string db_path = args[0];
  int threads = util::ThreadPool::DefaultThreads();
  bool strict = false;
  bool append = false;
  std::optional<int> shards;
  std::vector<std::string> paths;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--threads" && i + 1 < args.size()) {
      if (!ParseNumber(args[++i], &threads)) return Usage();
    } else if (args[i] == "--strict") {
      strict = true;
    } else if (args[i] == "--shards" && i + 1 < args.size()) {
      int n = 0;
      if (!ParseNumber(args[++i], &n) || n < 1) return Usage();
      shards = n;
    } else if (args[i] == "--append") {
      append = true;
    } else {
      paths.push_back(args[i]);
    }
  }
  if (paths.empty()) return Usage();

  util::ThreadPool pool(threads);
  index::VideoDatabase db;
  for (const std::string& path : paths) {
    codec::CmvFile file;
    core::MiningResult result;
    if (!LoadAndMine(path, &pool, strict, &file, &result)) return 1;
    ReportDegradation(path, result);
    db.AddVideo(file.name, std::move(result.structure),
                std::move(result.events), result.degraded);
  }

  if (append) {
    // Incremental indexing into an existing library: each mined video is
    // one O(entry) append (re-indexed names supersede their old record),
    // never a whole-library rewrite.
    util::StatusOr<std::unique_ptr<index::ShardedDatabase>> sdb =
        index::ShardedDatabase::Open(db_path);
    if (!sdb.ok()) {
      std::fprintf(stderr, "%s: %s\n", db_path.c_str(),
                   sdb.status().ToString().c_str());
      return 1;
    }
    for (int i = 0; i < db.video_count(); ++i) {
      index::VideoEntry entry = db.video(i);
      const util::Status up =
          (*sdb)->Upsert(entry.name, std::move(entry.structure),
                         std::move(entry.events), entry.degraded);
      if (!up.ok()) {
        std::fprintf(stderr, "%s: %s\n", db_path.c_str(),
                     up.ToString().c_str());
        return 1;
      }
    }
    std::printf("appended %d video(s) into %s: %d total, %llu dead "
                "record(s)\n",
                db.video_count(), db_path.c_str(), (*sdb)->live_count(),
                static_cast<unsigned long long>((*sdb)->dead_records()));
    return 0;
  }

  // A full rewrite: --shards N fixes the shard count; without it the
  // library keeps its count (one shard for a fresh path).
  const util::Status saved = shards ? index::SaveDatabase(db, db_path, *shards)
                                    : index::SaveDatabase(db, db_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "%s: %s\n", db_path.c_str(),
                 saved.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %d video(s), %zu shots, %d degraded\n",
              db_path.c_str(), db.video_count(), db.TotalShotCount(),
              db.DegradedCount());
  return 0;
}

int CmdVerify(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  const server::OpResult op = server::VerifyOp(args[0]);
  std::printf("%s", op.report.c_str());
  return op.ok() ? 0 : 1;
}

int CmdRepair(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const std::string db_path = args[0];
  int threads = util::ThreadPool::DefaultThreads();
  std::string media_dir;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--media" && i + 1 < args.size()) {
      media_dir = args[++i];
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      if (!ParseNumber(args[++i], &threads)) return Usage();
    } else {
      return Usage();
    }
  }

  util::ThreadPool pool(threads);
  server::OpEnv env;
  env.ctx = &pool;
  env.media_dir = media_dir;
  server::OpDiagnostics diag;
  const server::OpResult op = server::RepairOp(db_path, env, &diag);
  std::printf("%s", op.report.c_str());
  PrintDiagnostics(diag);
  if (!op.ok()) {
    if (op.report.empty()) {
      std::fprintf(stderr, "%s\n", op.status.ToString().c_str());
    }
    return 1;
  }
  return 0;
}

int CmdCompact(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  const std::string db_path = args[0];
  int shard = -1;
  bool force = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--shard" && i + 1 < args.size()) {
      if (!ParseNumber(args[++i], &shard)) return Usage();
    } else if (args[i] == "--force") {
      force = true;
    } else {
      return Usage();
    }
  }
  const server::OpResult op = server::CompactOp(db_path, shard, force);
  std::printf("%s", op.report.c_str());
  if (!op.ok()) {
    std::fprintf(stderr, "%s\n", op.status.ToString().c_str());
    return 1;
  }
  return 0;
}

// Prints the compiled-in fail-point catalogue (same list as
// `classminerd --failpoints list`), one site per line.
int CmdFailpoints(const std::vector<std::string>& args) {
  if (!args.empty()) return Usage();
  for (const std::string& site : util::FailPoint::KnownSites()) {
    std::printf("%s\n", site.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);

  if (cmd == "generate") return CmdGenerate(args);
  if (cmd == "mine") return CmdMine(args);
  if (cmd == "search") return CmdSearch(args);
  if (cmd == "skim") return CmdSkim(args);
  if (cmd == "browse") return CmdBrowse(args);
  if (cmd == "index") return CmdIndex(args);
  if (cmd == "verify") return CmdVerify(args);
  if (cmd == "repair") return CmdRepair(args);
  if (cmd == "compact") return CmdCompact(args);
  if (cmd == "failpoints") return CmdFailpoints(args);
  return Usage();
}
