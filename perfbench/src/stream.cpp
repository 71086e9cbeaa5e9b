// stream-epochs: a paper-scale 8-round schedule with a facility outage at
// round 5, folded through StreamEngine in 500-event epochs on one thread.
// The timed operation is one epoch fold. The schedule is folded at least
// three times by fresh engines and each epoch's time is the median of its
// folds: a spell of host load lasting a few seconds then slows one fold,
// not the reported epoch times. Afterwards a daemon serves the last
// snapshot's report (probe_serve).
#include <filesystem>
#include <memory>

#include "io/export.h"
#include "stats.h"
#include "stream/engine.h"
#include "stream/schedule.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetups = 3;
constexpr std::size_t kPasses = 3;
constexpr std::size_t kEpochEvents = 500;
constexpr const char* kReport = "report.json";

}  // namespace

double run_stream(const Options& options, bool layers, Result& result) {
  cfs::StreamScheduleConfig config;
  config.pipeline = seeded(cfs::PipelineConfig::paper_scale(), options.seed);
  config.rounds = 8;
  config.outage_round = 5;
  config.seed = config.pipeline.seed;

  cfs::StreamSchedule schedule;
  std::vector<std::vector<cfs::StreamEvent>> epochs;
  std::unique_ptr<cfs::Pipeline> pipeline;
  cfs::MetricsSnapshot baseline;
  std::vector<double> setup_ms;
  std::vector<double> schedule_ms;
  std::vector<double> construct_ms;
  const auto set_up = [&] {
    schedule = {};
    epochs.clear();
    pipeline.reset();
    baseline = cfs::Trace::metrics();
    cfs::TraceSpan span("bench.setup", "bench");
    const auto start = Clock::now();
    schedule = cfs::generate_stream_schedule(config);
    schedule_ms.push_back(ms_since(start));
    const auto construct = Clock::now();
    pipeline = std::make_unique<cfs::Pipeline>(config.pipeline);
    construct_ms.push_back(ms_since(construct));
    epochs = cfs::slice_epochs(schedule, kEpochEvents);
    setup_ms.push_back(ms_since(start));
  };

  for (int i = 0; i < kSetups; ++i) set_up();
  // pass_ms[p][e]: epoch e of fold pass p.
  std::vector<std::vector<double>> pass_ms;
  double window_ms = 0.0;
  cfs::StreamSnapshot last;
  while (pass_ms.size() < kPasses || window_ms < options.seconds * 1000.0) {
    cfs::StreamEngine engine(pipeline->topology(), pipeline->ip2asn(),
                             pipeline->facility_db());
    std::vector<double>& times = pass_ms.emplace_back();
    for (const auto& slice : epochs) {
      const auto start = Clock::now();
      {
        cfs::TraceSpan span("bench.fold_epoch", "bench");
        last = engine.fold_epoch(slice);
      }
      times.push_back(ms_since(start));
      window_ms += times.back();
      ++result.attempted;
    }
  }
  result.set("peak_rss_mb", peak_rss_mb());

  {
    cfs::TraceSpan span("bench.export", "bench");
    cfs::write_report_file(kReport, last.report);
  }
  const std::string exported = read_text(kReport);
  registry_layers(cfs::Trace::metrics_since(baseline), result);

  std::vector<double> epoch_ms;  // per epoch, the median over passes
  std::vector<double> fold_ms;   // per pass
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    std::vector<double> folds;
    for (const std::vector<double>& times : pass_ms) folds.push_back(times[e]);
    epoch_ms.push_back(percentile(folds, 0.5));
  }
  for (const std::vector<double>& times : pass_ms) {
    double total = 0.0;
    for (const double ms : times) total += ms;
    fold_ms.push_back(total);
  }
  const double latency = percentile(epoch_ms, 0.5);
  const double tail_q = tail_quantile(epoch_ms.size());
  const double median_fold_ms = percentile(fold_ms, 0.5);
  const double events_per_s =
      static_cast<double>(schedule.events.size()) / (median_fold_ms / 1000.0);
  result.set("setup_s", percentile(setup_ms, 0.5) / 1000.0);
  result.set("pipeline.construct_ms", percentile(construct_ms, 0.5));
  // The schedule generator probes its rounds directly rather than through
  // MeasurementCampaign::run, so its campaign is timed from outside.
  result.set("campaign.run_ms", percentile(schedule_ms, 0.5));
  result.set("latency_ms_p50", latency);
  result.set("stream.epoch_ms_p90", percentile(epoch_ms, tail_q));
  result.set("throughput_per_s", events_per_s);
  result.set("stream.fold_ms", median_fold_ms);
  result.set("stream.epochs", static_cast<double>(epoch_ms.size()));
  result.set("stream.snapshot_bytes",
             static_cast<double>(last.canonical.size()));
  result.set("export.report_bytes", static_cast<double>(exported.size()));
  Result::info("stream_epoch_ms_p50", std::to_string(latency));
  Result::info("stream_epoch_ms_p" + std::to_string(int(tail_q * 100)),
               std::to_string(percentile(epoch_ms, tail_q)));
  Result::info("stream_events_per_s", std::to_string(events_per_s));
  Result::info("schedule", std::to_string(schedule.events.size()) +
                               " events in " + std::to_string(epochs.size()) +
                               " epochs");
  print_digest(exported);

  // Partition invariance: the last epoch's canonical bytes equal a fresh
  // engine folding the whole schedule as one epoch.
  {
    cfs::TraceSpan span("bench.one_epoch_fold", "bench");
    cfs::StreamEngine whole(pipeline->topology(), pipeline->ip2asn(),
                            pipeline->facility_db());
    const cfs::StreamSnapshot once = whole.fold_epoch(schedule.events);
    result.check(once.canonical == last.canonical,
                 "final epoch equals a one-epoch fold of the schedule");
  }

  score_report(*pipeline, last.report, result);
  // The daemon serves the last snapshot's report: the serve layer is
  // checked in every run and its figures are per-layer metrics.
  probe_serve(kReport, options.seed, result);
  if (layers) {
    probe_forwarding(*pipeline, last.report, options.seed, result);
    probe_alias(*pipeline, last.report, options.seed, result);
  }
  std::filesystem::remove(kReport);
  return latency;
}

}  // namespace perfbench
