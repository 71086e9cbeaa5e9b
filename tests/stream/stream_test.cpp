// Streaming epoch engine (docs/STREAMING.md): event-model round trips,
// generator determinism, the partition-invariance contract, thread-count
// invariance and disruption detection against the generator ground truth.
#include <gtest/gtest.h>

#include <memory>

#include "core/pipeline.h"
#include "stream/detect.h"
#include "stream/engine.h"
#include "stream/events.h"
#include "stream/schedule.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace cfs {
namespace {

StreamScheduleConfig tiny_schedule_config() {
  StreamScheduleConfig config;
  config.pipeline = PipelineConfig::tiny();
  config.rounds = 4;
  config.outage_round = 2;
  config.pdb_delta_round = 1;
  config.churn_fraction = 0.25;
  config.seed = 7;
  return config;
}

TEST(StreamEvents, EventJsonRoundTripLosslessAboveDoubleRange) {
  StreamEvent event;
  // 2^53 + 1 is the first integer a double cannot hold; the stream model
  // must survive it and the full uint64 range.
  event.ts_ns = (1ull << 53) + 1;
  event.kind = StreamEventKind::TraceArrival;
  event.trace.vp = VantagePointId(3);
  ASSERT_TRUE(Ipv4::parse("10.1.2.3").has_value());
  event.trace.target = *Ipv4::parse("10.1.2.3");
  Hop hop;
  hop.address = *Ipv4::parse("10.9.9.9");
  hop.rtt_ms = 12.5;
  hop.responded = true;
  event.trace.hops.push_back(hop);
  event.trace.reached_target = true;

  const std::string bytes = stream_event_to_json(event).dump();
  const StreamEvent back = stream_event_from_json(parse_json(bytes));
  EXPECT_EQ(back.ts_ns, event.ts_ns);
  EXPECT_EQ(back.trace.hops.size(), 1u);
  EXPECT_EQ(back.trace.hops[0].address, hop.address);
  // Round-trip of the round-trip is byte-stable.
  EXPECT_EQ(stream_event_to_json(back).dump(), bytes);

  event.ts_ns = std::numeric_limits<std::uint64_t>::max();
  const std::string max_bytes = stream_event_to_json(event).dump();
  EXPECT_EQ(stream_event_from_json(parse_json(max_bytes)).ts_ns,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(StreamSchedule, GenerationIsDeterministicAndOrdered) {
  const StreamScheduleConfig config = tiny_schedule_config();
  const StreamSchedule a = generate_stream_schedule(config);
  const StreamSchedule b = generate_stream_schedule(config);
  EXPECT_EQ(stream_schedule_to_json(a).dump(), stream_schedule_to_json(b).dump());

  ASSERT_FALSE(a.events.empty());
  for (std::size_t i = 1; i < a.events.size(); ++i)
    EXPECT_LE(a.events[i - 1].ts_ns, a.events[i].ts_ns) << "event " << i;

  ASSERT_TRUE(a.ground_truth.has_outage);
  EXPECT_TRUE(a.ground_truth.outage_facility.valid());
  EXPECT_EQ(a.ground_truth.outage_round, config.outage_round);

  // The schedule itself round-trips through JSON losslessly.
  const StreamSchedule back =
      stream_schedule_from_json(parse_json(stream_schedule_to_json(a).dump()));
  EXPECT_EQ(stream_schedule_to_json(back).dump(),
            stream_schedule_to_json(a).dump());
}

TEST(StreamSchedule, OutageTruncatesTracesAfterOutageRound) {
  StreamScheduleConfig with = tiny_schedule_config();
  with.churn_fraction = 0.0;
  StreamScheduleConfig without = with;
  without.outage_round = static_cast<std::size_t>(-1);

  const StreamSchedule a = generate_stream_schedule(with);
  const StreamSchedule b = generate_stream_schedule(without);
  std::size_t hops_with = 0, hops_without = 0, timeouts_with = 0;
  for (const StreamEvent& e : a.events)
    if (e.kind == StreamEventKind::TraceArrival) {
      hops_with += e.trace.hops.size();
      timeouts_with += e.trace.hops_timed_out;
    }
  for (const StreamEvent& e : b.events)
    if (e.kind == StreamEventKind::TraceArrival)
      hops_without += e.trace.hops.size();
  EXPECT_LT(hops_with, hops_without);
  EXPECT_GT(timeouts_with, 0u);
}

// The core contract: folding epoch-by-epoch must be byte-identical, after
// every epoch, to a fresh engine folding the whole prefix at once.
TEST(StreamEngine, PrefixEquivalenceAcrossPartitions) {
  const StreamScheduleConfig config = tiny_schedule_config();
  const StreamSchedule schedule = generate_stream_schedule(config);
  Pipeline pipeline(config.pipeline);

  const auto epochs = slice_epochs(schedule, /*events_per_epoch=*/0);
  ASSERT_GE(epochs.size(), 3u);

  StreamEngine split(pipeline.topology(), pipeline.ip2asn(),
                     pipeline.facility_db());
  std::vector<StreamEvent> prefix;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const StreamSnapshot incremental = split.fold_epoch(epochs[e]);
    prefix.insert(prefix.end(), epochs[e].begin(), epochs[e].end());

    StreamEngine batch(pipeline.topology(), pipeline.ip2asn(),
                       pipeline.facility_db());
    const StreamSnapshot full = batch.fold_epoch(prefix);
    ASSERT_EQ(incremental.canonical, full.canonical) << "epoch " << e;
    EXPECT_EQ(incremental.epoch, e + 1);
    EXPECT_EQ(full.epoch, 1u);
  }
}

// Same contract under a different partition: per-event epochs for the
// first dozen events (worst-case fragmentation).
TEST(StreamEngine, SingleEventEpochsMatchBatch) {
  StreamScheduleConfig config = tiny_schedule_config();
  config.rounds = 2;
  config.outage_round = 1;
  const StreamSchedule schedule = generate_stream_schedule(config);
  Pipeline pipeline(config.pipeline);

  const std::size_t n = std::min<std::size_t>(schedule.events.size(), 12);
  StreamEngine split(pipeline.topology(), pipeline.ip2asn(),
                     pipeline.facility_db());
  std::string last_split;
  for (std::size_t i = 0; i < n; ++i)
    last_split =
        split.fold_epoch({&schedule.events[i], 1}).canonical;

  StreamEngine batch(pipeline.topology(), pipeline.ip2asn(),
                     pipeline.facility_db());
  const StreamSnapshot full =
      batch.fold_epoch({schedule.events.data(), n});
  EXPECT_EQ(last_split, full.canonical);
}

TEST(StreamEngine, ThreadCountInvariance) {
  const StreamScheduleConfig config = tiny_schedule_config();
  const StreamSchedule schedule = generate_stream_schedule(config);
  Pipeline pipeline(config.pipeline);
  const auto epochs = slice_epochs(schedule, 0);

  StreamEngine serial(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.facility_db());
  ThreadPool pool(4);
  StreamEngine parallel(pipeline.topology(), pipeline.ip2asn(),
                        pipeline.facility_db(), StreamEngineConfig{}, &pool);
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    const std::string a = serial.fold_epoch(epochs[e]).canonical;
    const std::string b = parallel.fold_epoch(epochs[e]).canonical;
    ASSERT_EQ(a, b) << "epoch " << e;
  }
}

// Pins the stream's absolute bytes, not just its self-consistency: the
// partition contract above would pass a fold that changed its output
// consistently. The constant is the canonical-bytes hash of this schedule
// (outage + PdbDelta + churn) folded in 100-event epochs; a deliberate
// model change updates it in the same commit.
TEST(StreamEngine, CanonicalBytesPinned) {
  constexpr std::uint64_t kPinned = 0x451841952235b2f0ull;
  const StreamScheduleConfig config = tiny_schedule_config();
  const StreamSchedule schedule = generate_stream_schedule(config);
  Pipeline pipeline(config.pipeline);
  const auto epochs = slice_epochs(schedule, /*events_per_epoch=*/100);
  ASSERT_GE(epochs.size(), 2u);

  for (const std::size_t threads : {1u, 4u}) {
    std::unique_ptr<ThreadPool> pool;
    if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
    StreamEngine engine(pipeline.topology(), pipeline.ip2asn(),
                        pipeline.facility_db(), StreamEngineConfig{},
                        pool.get());
    std::string canonical;
    for (const auto& epoch : epochs)
      canonical = engine.fold_epoch(epoch).canonical;
    EXPECT_EQ(fnv1a64(canonical), kPinned)
        << threads << " threads: 0x" << hex64(fnv1a64(canonical));
  }
}

TEST(StreamEngine, SnapshotReflectsStreamPosition) {
  const StreamScheduleConfig config = tiny_schedule_config();
  const StreamSchedule schedule = generate_stream_schedule(config);
  Pipeline pipeline(config.pipeline);

  StreamEngine engine(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.facility_db());
  const StreamSnapshot snap = engine.fold_epoch(schedule.events);
  EXPECT_EQ(snap.last_ts_ns, schedule.events.back().ts_ns);
  EXPECT_GT(snap.trace_events, 0u);
  EXPECT_EQ(snap.pdb_events, 1u);
  EXPECT_GT(snap.report.interfaces.size(), 0u);
  EXPECT_GT(snap.report.links.size(), 0u);
  EXPECT_EQ(snap.report.traces_used, snap.trace_events);
}

TEST(StreamDetect, DetectsInjectedOutageAtTheRightFacility) {
  StreamScheduleConfig config = tiny_schedule_config();
  config.rounds = 6;
  config.outage_round = 4;  // enough pre-outage epochs to form a baseline
  config.churn_fraction = 0.0;
  const StreamSchedule schedule = generate_stream_schedule(config);
  ASSERT_TRUE(schedule.ground_truth.has_outage);
  Pipeline pipeline(config.pipeline);

  StreamEngine engine(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.facility_db());
  DisruptionDetector detector;
  const auto epochs = slice_epochs(schedule, 0);
  for (const auto& epoch : epochs) {
    const StreamSnapshot snap = engine.fold_epoch(epoch);
    (void)detector.observe_epoch(epoch, snap);
  }
  ASSERT_FALSE(detector.alarms().empty()) << "outage never detected";
  bool localized = false;
  for (const DisruptionAlarm& alarm : detector.alarms())
    if (alarm.facility == schedule.ground_truth.outage_facility)
      localized = true;
  EXPECT_TRUE(localized) << "alarm never named the blacked-out facility";
  // No alarm may fire before the outage existed.
  for (const DisruptionAlarm& alarm : detector.alarms())
    EXPECT_GE(alarm.ts_ns, schedule.ground_truth.outage_ts_ns);
}

TEST(StreamDetect, QuietStreamRaisesNoAlarms) {
  StreamScheduleConfig config = tiny_schedule_config();
  config.outage_round = static_cast<std::size_t>(-1);
  config.churn_fraction = 0.0;
  config.pdb_delta_round = static_cast<std::size_t>(-1);
  const StreamSchedule schedule = generate_stream_schedule(config);
  Pipeline pipeline(config.pipeline);

  StreamEngine engine(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.facility_db());
  DisruptionDetector detector;
  for (const auto& epoch : slice_epochs(schedule, 0)) {
    const StreamSnapshot snap = engine.fold_epoch(epoch);
    (void)detector.observe_epoch(epoch, snap);
  }
  EXPECT_TRUE(detector.alarms().empty());
}

}  // namespace
}  // namespace cfs
