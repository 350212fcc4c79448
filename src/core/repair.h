#ifndef CLASSMINER_CORE_REPAIR_H_
#define CLASSMINER_CORE_REPAIR_H_

#include <string>

#include "core/classminer.h"
#include "index/repair.h"

namespace classminer::core {

// Builds the re-mine callback the index-layer repair pass injects (core
// owns the mining pipeline, so the callback is constructed here): entry
// `name` maps to the container `<media_dir>/<name>.cmv` (bare `<name>.cmv`
// when media_dir is empty), which is loaded strictly — a damaged source
// cannot seed a pristine entry — and re-mined through the compressed-domain
// fast path on `ctx` (its pool and cancellation token; borrowed, so its
// owners must outlive the callback; the default mines serially). The
// failure policy is forced to kStrict and structure_only off regardless of
// `options`, so a repaired entry is never itself degraded and always
// carries its events.
index::RemineFn MakeCmvRemineFn(std::string media_dir,
                                MiningOptions options = {},
                                util::ExecutionContext ctx = {});

}  // namespace classminer::core

#endif  // CLASSMINER_CORE_REPAIR_H_
