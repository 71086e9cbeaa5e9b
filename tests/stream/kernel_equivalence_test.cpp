// Stream <-> batch kernel equivalence: both engines fold through the same
// CFS kernel (core/fold.h), so a one-epoch stream fold must equal batch CFS
// run for one iteration with no follow-ups over the same traces, on every
// link and every link-endpoint interface.
//
// The engines differ in when Step 2 runs (stream: iteration 0; batch:
// iteration 1), so resolved_iteration, iterations_run and
// resolved_per_iteration are normalised away. The batch report may also
// hold "ghost" interfaces the stream never reports: rows that the raw
// (pre-correction) classification made present and that no corrected
// observation touches any more (docs/STREAMING.md, "Stream vs batch").
// They are dropped before the comparison; every stream interface must
// still be in the batch report.
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/pipeline.h"
#include "io/export.h"
#include "stream/engine.h"
#include "stream/schedule.h"

namespace cfs {
namespace {

// Report JSON without the fields that depend on the iteration numbering
// and, when `keep` is given, without interfaces whose address it lacks.
std::string normalised(const CfsReport& report,
                       const std::set<std::string>* keep) {
  JsonValue doc = report_to_json(report);
  JsonValue::Object& root = doc.as_object();
  root.erase("metrics");
  root.erase("iterations_run");
  root.erase("resolved_per_iteration");
  JsonValue::Array kept;
  for (JsonValue& inf : root.at("interfaces").as_array()) {
    if (keep != nullptr && !keep->contains(inf.at("address").as_string()))
      continue;
    inf.as_object().erase("resolved_iteration");
    kept.push_back(std::move(inf));
  }
  root["interfaces"] = JsonValue(std::move(kept));
  return doc.dump();
}

class KernelEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelEquivalence, OneEpochStreamEqualsOneIterationBatch) {
  const std::uint64_t seed = GetParam();
  StreamScheduleConfig config;
  config.pipeline = PipelineConfig::small_scale();
  config.pipeline.seed = seed;
  config.pipeline.generator.seed = seed * 977 + 3;
  config.pipeline.cfs.max_iterations = 1;
  config.pipeline.cfs.followup_interfaces = 0;
  config.rounds = 2;
  config.outage_round = 1;  // truncated traces fold like any other
  config.seed = seed;
  const StreamSchedule schedule = generate_stream_schedule(config);
  Pipeline pipeline(config.pipeline);

  StreamEngine engine(pipeline.topology(), pipeline.ip2asn(),
                      pipeline.facility_db());
  const StreamSnapshot snap = engine.fold_epoch(schedule.events);
  ASSERT_GT(snap.report.links.size(), 0u);

  std::vector<TraceResult> traces;
  for (const StreamEvent& event : schedule.events)
    if (event.kind == StreamEventKind::TraceArrival)
      traces.push_back(event.trace);
  const CfsReport batch = pipeline.run_cfs(std::move(traces));
  ASSERT_EQ(batch.iterations_run, 1u);

  std::set<std::string> stream_addrs;
  for (const auto& [addr, inf] : snap.report.interfaces) {
    EXPECT_NE(batch.find(addr), nullptr)
        << addr.to_string() << " is missing from the batch report";
    stream_addrs.insert(addr.to_string());
  }
  EXPECT_EQ(normalised(snap.report, nullptr),
            normalised(batch, &stream_addrs));
}

INSTANTIATE_TEST_SUITE_P(SmallSeeds, KernelEquivalence,
                         ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace cfs
