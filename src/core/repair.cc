#include "core/repair.h"

#include <utility>

#include "codec/container.h"
#include "core/cmv_pipeline.h"

namespace classminer::core {

index::RemineFn MakeCmvRemineFn(std::string media_dir, MiningOptions options,
                                util::ExecutionContext ctx) {
  options.failure_policy = FailurePolicy::kStrict;
  options.structure_only = false;  // the re-mined entry stores events
  return [media_dir = std::move(media_dir), options,
          ctx](const std::string& name)
             -> util::StatusOr<index::ReminedEntry> {
    const std::string path =
        media_dir.empty() ? name + ".cmv" : media_dir + "/" + name + ".cmv";
    util::StatusOr<codec::CmvFile> file = codec::CmvFile::LoadFromFile(path);
    if (!file.ok()) return file.status();
    util::StatusOr<MiningResult> mined = MineCmvFileFast(*file, options, ctx);
    if (!mined.ok()) return mined.status();
    if (mined->degraded) {
      return util::Status::DataLoss("re-mine of " + path +
                                    " produced a degraded result");
    }
    index::ReminedEntry entry;
    entry.structure = std::move(mined->structure);
    entry.events = std::move(mined->events);
    return entry;
  };
}

}  // namespace classminer::core
