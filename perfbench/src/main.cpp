// perfbench: runs one workload of the repository benchmark and prints the
// result line. Usually started through perfbench/run.py, which builds this
// binary and gives it a fresh work directory as its current directory:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// once untraced and once with the span timeline on, reports the per-layer
// metrics of the traced pass plus trace_overhead_pct, and writes the
// Chrome trace to --trace-out. See perfbench/README.md.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "io/json.h"
#include "util/trace.h"
#include "workloads.h"

namespace {

using perfbench::Options;
using perfbench::Result;

struct Metric {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"latency_ms_p50", "ms"},
    {"throughput_per_s", "1/s"},
    {"facility_accuracy_pct", "%"},
    {"city_accuracy_pct", "%"},
    {"resolved_pct", "%"},
};

// A workload that does not exercise a layer reports 0 for it.
constexpr Metric kPerLayer[] = {
    {"topology.generate_ms", "ms"},
    {"pipeline.construct_ms", "ms"},
    {"campaign.run_ms", "ms"},
    {"campaign.traces_kept", "count"},
    {"campaign.lg_queries", "count"},
    {"forwarding.route_us_p50", "us"},
    {"forwarding.route_us_p99", "us"},
    {"cfs.run_ms", "ms"},
    {"cfs.alias_refresh_ms", "ms"},
    {"cfs.alias_refreshes", "count"},
    {"cfs.followups_ms", "ms"},
    {"cfs.followup_traces", "count"},
    {"cfs.classify_ms", "ms"},
    {"cfs.ingest_ms", "ms"},
    {"cfs.reclassify_ms", "ms"},
    {"cfs.constrain_ms", "ms"},
    {"cfs.arena_bytes", "bytes"},
    {"cfs.tail_spilled_bytes", "bytes"},
    {"corpus.bytes", "bytes"},
    {"corpus.verify_ms", "ms"},
    {"alias.resolve_ms", "ms"},
    {"alias.probes_sent", "count"},
    {"alias.multi_sets", "count"},
    {"alias.false_merged_sets", "count"},
    {"export.report_ms", "ms"},
    {"export.report_bytes", "bytes"},
    {"stream.fold_ms", "ms"},
    {"stream.epochs", "count"},
    {"stream.snapshot_bytes", "bytes"},
    {"stream.epoch_ms_p90", "ms"},
    {"serve.lookup_us_p50", "us"},
    {"serve.peers_at_us_p50", "us"},
    {"serve.response_bytes_mean", "bytes"},
    {"serve.state_build_ms", "ms"},
    {"serve.reload_ms_p50", "ms"},
    {"serve.latency_us_p99", "us"},
    {"trace_overhead_pct", "%"},
};

Options parse(int argc, char** argv) {
  Options options;
  bool has_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      options.workload = value;
      has_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value, &used);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value, &used);
      if (!(options.seconds > 0.0 && options.seconds <= 600.0))
        throw std::invalid_argument("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace must be 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != 0 && used != value.size())
      throw std::invalid_argument("malformed value for " + flag);
  }
  if (!has_workload) throw std::invalid_argument("--workload is required");
  return options;
}

double run_pass(const Options& options, bool layers, Result& result) {
  const std::string& w = options.workload;
  if (w == "x10-spill") return perfbench::run_batch(options, layers, result);
  if (w == "stream-epochs")
    return perfbench::run_stream(options, layers, result);
  throw std::invalid_argument("unknown workload '" + w +
                              "' (x10-spill|stream-epochs)");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse(argc, argv);
    Result result;
    if (!options.trace) {
      (void)run_pass(options, false, result);
    } else {
      Result untraced;
      std::cout << "-- untraced pass --\n";
      const double base_ms = run_pass(options, false, untraced);
      std::cout << "-- traced pass --\n";
      cfs::Trace::clear_events();
      cfs::Trace::enable();
      const double traced_ms = run_pass(options, true, result);
      cfs::Trace::disable();
      result.correct = result.correct && untraced.correct;
      result.attempted += untraced.attempted;
      result.failed += untraced.failed;
      result.set("trace_overhead_pct", 100.0 * (traced_ms / base_ms - 1.0));
      if (!options.trace_out.empty()) {
        std::ofstream file(options.trace_out);
        cfs::Trace::write_chrome_trace(file);
        if (!file.flush())
          throw std::runtime_error("cannot write " + options.trace_out);
        std::cout << "info trace: " << cfs::Trace::events().size()
                  << " spans written to " << options.trace_out << "\n";
      }
    }

    cfs::JsonValue::Object metrics;
    const auto emit = [&](const Metric& metric, bool required) {
      const auto it = result.metrics.find(metric.name);
      if (it == result.metrics.end() && required)
        throw std::logic_error(std::string("workload did not measure ") +
                               metric.name);
      cfs::JsonValue::Object entry;
      entry.emplace("value", it == result.metrics.end() ? 0.0 : it->second);
      entry.emplace("unit", metric.unit);
      metrics.emplace(metric.name, std::move(entry));
    };
    if (options.trace)
      for (const Metric& metric : kPerLayer) emit(metric, false);
    else
      for (const Metric& metric : kEndToEnd) emit(metric, true);

    cfs::JsonValue::Object line;
    line.emplace("correct", result.correct);
    line.emplace("attempted", result.attempted);
    line.emplace("failed", result.failed);
    line.emplace("metrics", std::move(metrics));
    std::cout << cfs::JsonValue(std::move(line)).dump() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
