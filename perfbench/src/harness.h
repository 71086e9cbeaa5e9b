// Shared plumbing for the workloads: options, the result line, and the
// outside-in probes of single layers (forwarding, alias resolution,
// export, oracle scoring) that several workloads take.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "core/pipeline.h"
#include "util/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // Chrome trace file written by a traced run
};

// One run's outcome: the contract's result line plus the checks behind
// `correct`. Workloads set every metric they measure, in both modes; main
// prints the end-to-end or the per-layer set.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;  // units live in main.cpp

  void set(const std::string& name, double value) { metrics[name] = value; }
  // Records a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  // Information for the reader (digests, counts); never part of the
  // result line.
  static void info(const std::string& name, const std::string& value);
};

// World and seed handling of `cfs infer --seed s`.
[[nodiscard]] cfs::PipelineConfig seeded(cfs::PipelineConfig config,
                                         std::uint64_t seed);

// Process high-water RSS in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();

// Per-layer metrics the program publishes in its registry, from a delta
// taken with Trace::metrics_since.
void registry_layers(const cfs::MetricsSnapshot& delta, Result& result);

// Oracle scoring of a final report: facility and city accuracy, resolved
// share, and alias sets that merge two ground-truth routers. Quality is
// measured, never gated.
void score_report(cfs::Pipeline& pipeline, const cfs::CfsReport& report,
                  Result& result);

// Reads a whole file, such as the report just written.
[[nodiscard]] std::string read_text(const std::string& path);

// Export round trip: re-importing the written report and exporting it
// again must reproduce the file byte for byte.
[[nodiscard]] bool export_fixpoint(const std::string& exported);

// Prints the inference digest (report JSON minus /metrics).
void print_digest(const std::string& exported);

// A seeded sample of ForwardingEngine::route calls from vantage-point
// routers toward the report's interface addresses, timed one by one.
void probe_forwarding(const cfs::Pipeline& pipeline,
                      const cfs::CfsReport& report, std::uint64_t seed,
                      Result& result);

// One AliasResolver::resolve over every interface address of the report.
void probe_alias(const cfs::Pipeline& pipeline, const cfs::CfsReport& report,
                 std::uint64_t seed, Result& result);

// A short closed-loop session against an in-process daemon serving the
// report file, with periodic reloads; every answer is checked against
// handle_request and counted in attempted/failed.
void probe_serve(const std::string& report_path, std::uint64_t seed,
                 Result& result);

}  // namespace perfbench
