// x10-spill: the paper-scale world with its default target list probed
// ten times over, spilled to a 4-shard corpus on 2 threads. The timed
// operation is one `cfs infer`-style inference, from campaign start until
// the report JSON is written. A run times at least two inferences, more
// while the window has time left, and reports their median: a spell of
// host load lasting a few seconds then slows one inference, not the
// reported time.
#include <filesystem>
#include <memory>

#include "data/corpus/corpus.h"
#include "io/export.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetups = 5;
constexpr std::size_t kMinInferences = 2;
constexpr int kTargetRepeats = 10;
constexpr int kShards = 4;
constexpr const char* kReport = "report.json";
constexpr const char* kCorpus = "corpus";

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir))
    if (entry.is_regular_file()) total += entry.file_size();
  return total;
}

}  // namespace

double run_batch(const Options& options, bool layers, Result& result) {
  cfs::PipelineConfig config =
      seeded(cfs::PipelineConfig::paper_scale(), options.seed);
  // bench_scale's construction of the ten-fold campaign.
  config.threads = 2;
  config.spill.enabled = true;
  config.spill.dir = kCorpus;
  config.spill.shards = kShards;

  std::unique_ptr<cfs::Pipeline> pipeline;
  std::vector<cfs::Asn> targets;
  cfs::MetricsSnapshot baseline;
  std::vector<double> setup_ms;
  std::vector<double> construct_ms;
  const auto set_up = [&] {
    pipeline.reset();
    std::filesystem::remove_all(kCorpus);
    baseline = cfs::Trace::metrics();
    cfs::TraceSpan span("bench.setup", "bench");
    const auto start = Clock::now();
    pipeline = std::make_unique<cfs::Pipeline>(config);
    construct_ms.push_back(ms_since(start));
    const std::vector<cfs::Asn> base = pipeline->default_targets(2, 2);
    targets.clear();
    for (int i = 0; i < kTargetRepeats; ++i)
      targets.insert(targets.end(), base.begin(), base.end());
    setup_ms.push_back(ms_since(start));
  };

  for (int i = 0; i < kSetups; ++i) set_up();
  std::vector<double> infer_ms;
  std::vector<double> traces_per_s;
  double window_ms = 0.0;
  std::size_t initial_traces = 0;
  cfs::CfsReport report;
  for (;;) {
    const auto start = Clock::now();
    {
      cfs::TraceSpan span("bench.infer", "bench");
      cfs::corpus::TraceStore store;
      {
        cfs::TraceSpan campaign("bench.initial_campaign", "bench");
        store = pipeline->initial_campaign_store(targets, 0.6);
      }
      initial_traces = store.size();
      {
        cfs::TraceSpan cfs_span("bench.run_cfs", "bench");
        report = pipeline->run_cfs(std::move(store));
      }
      cfs::TraceSpan export_span("bench.export", "bench");
      cfs::write_report_file(kReport, report);
    }
    infer_ms.push_back(ms_since(start));
    window_ms += infer_ms.back();
    traces_per_s.push_back(static_cast<double>(report.traces_used) /
                           (infer_ms.back() / 1000.0));
    ++result.attempted;
    if (infer_ms.size() >= kMinInferences &&
        window_ms >= options.seconds * 1000.0)
      break;
    set_up();
  }
  result.set("peak_rss_mb", peak_rss_mb());
  registry_layers(cfs::Trace::metrics_since(baseline), result);

  const double latency = percentile(infer_ms, 0.5);
  result.set("setup_s", percentile(setup_ms, 0.5) / 1000.0);
  result.set("pipeline.construct_ms", percentile(construct_ms, 0.5));
  result.set("latency_ms_p50", latency);
  result.set("throughput_per_s", percentile(traces_per_s, 0.5));
  result.set("cfs.followup_traces",
             static_cast<double>(report.traces_used - initial_traces));
  Result::info("infer_s", std::to_string(latency / 1000.0));
  std::string each;
  for (const double ms : infer_ms) each += " " + std::to_string(ms);
  Result::info("inferences", std::to_string(infer_ms.size()) + ", ms:" + each);

  const std::string exported = read_text(kReport);
  result.set("export.report_bytes", static_cast<double>(exported.size()));
  print_digest(exported);
  result.check(export_fixpoint(exported), "export round trip is a fixpoint");

  {
    cfs::TraceSpan span("bench.corpus_verify", "bench");
    const auto start = Clock::now();
    const cfs::corpus::CorpusSummary summary =
        cfs::corpus::TraceCorpusReader::verify(kCorpus);
    result.set("corpus.verify_ms", ms_since(start));
    result.set("corpus.bytes", static_cast<double>(directory_bytes(kCorpus)));
    result.check(summary.traces == initial_traces &&
                     summary.shards == static_cast<std::size_t>(kShards),
                 "spilled corpus re-hashes clean and holds every initial "
                 "trace in 4 shards");
  }

  score_report(*pipeline, report, result);
  if (layers) {
    probe_forwarding(*pipeline, report, options.seed, result);
    probe_alias(*pipeline, report, options.seed, result);
  }
  std::filesystem::remove_all(kCorpus);
  std::filesystem::remove(kReport);
  return latency;
}

}  // namespace perfbench
