#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "alias/midar.h"
#include "io/export.h"
#include "stats.h"
#include "util/rng.h"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  std::cout << (ok ? "check ok: " : "CHECK FAILED: ") << what << "\n";
  correct = correct && ok;
}

void Result::info(const std::string& name, const std::string& value) {
  std::cout << "info " << name << ": " << value << "\n";
}

cfs::PipelineConfig seeded(cfs::PipelineConfig config, std::uint64_t seed) {
  config.seed = seed;
  config.generator.seed = seed * 977 + 3;
  return config;
}

double peak_rss_mb() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

void registry_layers(const cfs::MetricsSnapshot& delta, Result& result) {
  const auto timer = [&](const char* name) {
    const auto it = delta.timers.find(name);
    return it == delta.timers.end() ? cfs::MetricsSnapshot::Timer{}
                                    : it->second;
  };
  const auto counter = [&](const char* name) {
    const auto it = delta.counters.find(name);
    return it == delta.counters.end() ? 0.0
                                      : static_cast<double>(it->second);
  };
  const auto gauge = [&](const char* name) {
    const auto it = delta.gauges.find(name);
    return it == delta.gauges.end() ? 0.0 : it->second;
  };
  result.set("topology.generate_ms", timer("topology.generate").total_ms);
  result.set("campaign.run_ms",
             timer("campaign.run").total_ms +
                 timer("campaign.run_sharded").total_ms);
  result.set("campaign.traces_kept", counter("campaign.traces_kept"));
  result.set("campaign.lg_queries", counter("campaign.lg_queries"));
  result.set("cfs.run_ms", timer("cfs.run").total_ms);
  result.set("cfs.alias_refresh_ms", timer("cfs.alias_refresh").total_ms);
  result.set("cfs.alias_refreshes",
             static_cast<double>(timer("cfs.alias_refresh").count));
  result.set("cfs.followups_ms", timer("cfs.followups").total_ms);
  result.set("cfs.classify_ms", timer("cfs.classify").total_ms);
  result.set("cfs.ingest_ms", timer("cfs.ingest").total_ms);
  result.set("cfs.reclassify_ms", timer("cfs.reclassify").total_ms);
  result.set("cfs.constrain_ms", timer("cfs.constrain").total_ms);
  result.set("cfs.arena_bytes", gauge("cfs.arena_bytes"));
  result.set("cfs.tail_spilled_bytes", gauge("cfs.tail_spilled_bytes"));
  result.set("export.report_ms", timer("export.report").total_ms);
}

void score_report(cfs::Pipeline& pipeline, const cfs::CfsReport& report,
                  Result& result) {
  const auto oracle = pipeline.validation().oracle_interface_accuracy(report);
  result.set("facility_accuracy_pct", 100.0 * oracle.accuracy());
  result.set("city_accuracy_pct", 100.0 * oracle.city_accuracy());
  result.set("resolved_pct", 100.0 * report.resolved_fraction());

  // An alias set is falsely merged when its addresses belong to more
  // than one ground-truth router.
  std::uint64_t false_merged = 0;
  for (const auto& set : report.aliases.sets) {
    std::set<std::uint32_t> routers;
    for (const cfs::Ipv4 address : set)
      if (const cfs::Interface* iface =
              pipeline.topology().find_interface(address))
        routers.insert(iface->router.value);
    false_merged += routers.size() > 1;
  }
  result.set("alias.false_merged_sets", static_cast<double>(false_merged));
  Result::info("alias_false_merged_sets", std::to_string(false_merged));
}

std::string read_text(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

bool export_fixpoint(const std::string& exported) {
  const cfs::CfsReport reimported =
      cfs::report_from_json(cfs::parse_json(exported));
  std::ostringstream again;
  cfs::write_report(again, reimported);
  return again.str() == exported;
}

void print_digest(const std::string& exported) {
  Result::info("inference_digest",
               inference_digest(cfs::parse_json(exported)));
}

namespace {

std::vector<cfs::Ipv4> sorted_addresses(const cfs::CfsReport& report) {
  std::vector<cfs::Ipv4> addresses;
  addresses.reserve(report.interfaces.size());
  for (const auto& entry : report.interfaces) addresses.push_back(entry.first);
  std::sort(addresses.begin(), addresses.end());
  return addresses;
}

}  // namespace

void probe_forwarding(const cfs::Pipeline& pipeline,
                      const cfs::CfsReport& report, std::uint64_t seed,
                      Result& result) {
  constexpr int kCalls = 1500;  // p99 keeps 15 samples beyond it
  const auto vps = pipeline.vantage_points().all();
  const std::vector<cfs::Ipv4> targets = sorted_addresses(report);
  std::vector<double> us;
  if (!vps.empty() && !targets.empty()) {
    cfs::TraceSpan span("bench.forwarding_sample", "bench");
    cfs::Rng rng(seed ^ 0xf0f0f0f0ull);
    us.reserve(kCalls);
    for (int i = 0; i < kCalls; ++i) {
      const cfs::RouterId src = vps[rng.uniform(vps.size())].attach;
      const cfs::Ipv4 target = targets[rng.uniform(targets.size())];
      const auto start = Clock::now();
      (void)pipeline.forwarding().route(src, target);
      us.push_back(ms_since(start) * 1000.0);
    }
  }
  result.set("forwarding.route_us_p50", percentile(us, 0.5));
  result.set("forwarding.route_us_p99", percentile(us, 0.99));
}

void probe_alias(const cfs::Pipeline& pipeline, const cfs::CfsReport& report,
                 std::uint64_t seed, Result& result) {
  cfs::TraceSpan span("bench.alias_resolve", "bench");
  cfs::AliasResolver resolver(pipeline.topology(), seed);
  const auto start = Clock::now();
  const cfs::AliasSets sets = resolver.resolve(sorted_addresses(report));
  result.set("alias.resolve_ms", ms_since(start));
  result.set("alias.probes_sent", static_cast<double>(resolver.probes_sent()));
  std::uint64_t multi = 0;
  for (const auto& set : sets.sets) multi += set.size() > 1;
  result.set("alias.multi_sets", static_cast<double>(multi));
}

}  // namespace perfbench
