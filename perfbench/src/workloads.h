// The benchmark's workloads. Each function runs one pass of its workload:
// set-up (repeated, median reported), the timed window, then the
// correctness checks. It fills `result` and returns the median latency
// of the pass's user-facing operation in ms, which traced runs compare
// against an untraced pass. `layers` adds the outside-in layer probes of
// a traced run.
#pragma once

#include "harness.h"

namespace perfbench {

double run_batch(const Options& options, bool layers, Result& result);
double run_stream(const Options& options, bool layers, Result& result);

}  // namespace perfbench
