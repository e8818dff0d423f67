// The benchmark's workloads (README.md lists each with its reason).
#pragma once

#include "harness.h"

namespace perfbench {

/// Run `args.workload` into `rep`: end-to-end metrics when args.trace is
/// off, per-layer metrics when it is on. Returns false for an unknown
/// workload name.
bool run_workload(const Args& args, Report& rep);

}  // namespace perfbench
