// Order statistics and report digests shared by every workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "io/json.h"

namespace perfbench {

// Nearest-rank percentile (q in (0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

// Samples strictly above the nearest-rank q-percentile of n samples.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

// The highest of p99 and p90 that leaves at least ten samples beyond it,
// so a reported tail is never one outlier. With fewer than eleven samples
// neither does, and the tail is the slowest sample (1.0).
[[nodiscard]] double tail_quantile(std::size_t n);

[[nodiscard]] std::uint64_t fnv1a64(const std::string& bytes);

// Digest of the inference result alone: the exported report with its
// run-telemetry subtree (/metrics) removed, as 16 hex digits. Two runs
// that inferred the same map print the same digest whatever their timings.
[[nodiscard]] std::string inference_digest(cfs::JsonValue report_json);

}  // namespace perfbench
