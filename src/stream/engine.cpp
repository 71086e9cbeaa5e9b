#include "stream/engine.h"

#include <algorithm>
#include <utility>

#include "core/fold.h"
#include "io/export.h"
#include "util/trace.h"

namespace cfs {

StreamEngine::StreamEngine(const Topology& topo, const IpToAsnService& ip2asn,
                           FacilityDatabase db,
                           const StreamEngineConfig& config, ThreadPool* pool)
    : topo_(topo),
      ip2asn_(ip2asn),
      db_(std::move(db)),
      config_(config),
      pool_(pool),
      raw_map_(ip2asn),
      border_(ip2asn) {}

StreamSnapshot StreamEngine::fold_epoch(std::span<const StreamEvent> events) {
  // ---- 1. consume the slice ----
  const std::size_t first_new = traces_.size();
  for (const StreamEvent& event : events) {
    last_ts_ns_ = std::max(last_ts_ns_, event.ts_ns);
    switch (event.kind) {
      case StreamEventKind::TraceArrival:
        ++trace_events_;
        traces_.append(TraceResult(event.trace));
        break;
      case StreamEventKind::VpChurn:
        ++churn_events_;
        if (event.vp_up)
          vps_down_.erase(event.vp.value);
        else
          vps_down_.insert(event.vp.value);
        break;
      case StreamEventKind::PdbDelta:
        ++pdb_events_;
        db_.remove_facility(event.removed_facility);
        break;
      case StreamEventKind::Fault:
        ++fault_events_;
        break;
    }
  }
  raw_obs_.resize(traces_.size());
  cooked_obs_.resize(traces_.size());
  TraceResult scratch;  // row access; the in-memory store never uses it

  // ---- 2. raw classification of new traces (cache valid forever) ----
  std::vector<std::uint32_t> fresh_idx;
  fresh_idx.reserve(traces_.size() - first_new);
  for (std::size_t i = first_new; i < traces_.size(); ++i)
    fresh_idx.push_back(static_cast<std::uint32_t>(i));
  {
    TraceSpan span("stream.classify");
    span.arg("traces", fresh_idx.size());
    const HopClassifier raw(ip2asn_, raw_map_);
    std::vector<std::vector<PeeringObservation>> out = classify_range(
        raw, traces_, fresh_idx, pool_, "stream.classify_chunk");
    for (std::size_t j = 0; j < fresh_idx.size(); ++j)
      raw_obs_[fresh_idx[j]] = std::move(out[j]);
  }
  for (const std::uint32_t i : fresh_idx) {
    for (const Hop& hop : traces_.at(i, scratch).hops) {
      if (!hop.responded) continue;
      auto& slot = traces_by_addr_[hop.address];
      if (slot.empty() || slot.back() != i) slot.push_back(i);
    }
    for (const PeeringObservation& obs : raw_obs_[i]) {
      present0_.insert(obs.near_addr);
      present0_.insert(obs.far_addr);
    }
  }

  // ---- 3. alias resolution, memoized on the target set ----
  // A fresh resolver per run makes the sets a pure function of the sorted
  // target list; addresses only ever join the set, so size is identity.
  {
    TraceSpan span("stream.alias_resolve");
    const bool re_resolve = present0_.size() != aliased_count_;
    span.arg("re_resolved", re_resolve ? 1 : 0);
    span.arg("targets", present0_.size());
    if (re_resolve) {
      const std::vector<Ipv4> targets(present0_.begin(), present0_.end());
      AliasResolver resolver(topo_, config_.seed);
      aliases_ = resolver.resolve(targets);
      aliased_count_ = present0_.size();
    }
  }

  TraceSpan reclassify_span("stream.reclassify");
  // ---- 4. border evidence: each trace fed exactly once, in order ----
  for (; border_upto_ < traces_.size(); ++border_upto_)
    border_.ingest(traces_.at(border_upto_, scratch));

  // ---- 5. fresh corrected map (never accumulated across epochs) ----
  InterfaceAsnMap epoch_map(ip2asn_);
  epoch_map.apply_alias_correction(aliases_);
  epoch_map.apply_border_corrections(border_.corrections());

  // ---- 6. invalidate cooked classifications by correction-table diff ----
  const std::unordered_map<Ipv4, Asn>& cur = epoch_map.corrected_map();
  std::vector<char> stale(cooked_upto_, 0);
  const auto mark_stale = [&](Ipv4 addr) {
    const auto it = traces_by_addr_.find(addr);
    if (it == traces_by_addr_.end()) return;
    for (const std::uint32_t idx : it->second)
      if (idx < cooked_upto_) stale[idx] = 1;
  };
  for (const auto& [addr, asn] : cur) {
    const auto it = prev_corrections_.find(addr);
    if (it == prev_corrections_.end() || it->second != asn) mark_stale(addr);
  }
  for (const auto& [addr, asn] : prev_corrections_)
    if (cur.find(addr) == cur.end()) mark_stale(addr);
  prev_corrections_ = cur;

  std::vector<std::uint32_t> todo;
  for (std::size_t i = 0; i < cooked_upto_; ++i)
    if (stale[i]) todo.push_back(static_cast<std::uint32_t>(i));
  reclassify_span.arg("stale_traces", todo.size());
  todo.insert(todo.end(), fresh_idx.begin(), fresh_idx.end());
  {
    const HopClassifier cooked(ip2asn_, epoch_map);
    std::vector<std::vector<PeeringObservation>> out = classify_range(
        cooked, traces_, todo, pool_, "stream.classify_chunk");
    for (std::size_t j = 0; j < todo.size(); ++j)
      cooked_obs_[todo[j]] = std::move(out[j]);
  }
  cooked_upto_ = traces_.size();
  reclassify_span.arg("traces", todo.size());
  reclassify_span.stop();

  // ---- 7. fold: a fresh CFS kernel over every cooked observation ----
  // Absorbed in trace order (the kernel's merge rule), then one Step-2
  // pass in key order and one alias pass, both at iteration 0. A fresh
  // kernel keeps the fold partition-invariant and frees its arena with it.
  CfsReport report;
  {
    TraceSpan span("stream.fold");
    CfsFold fold(topo_, db_, config_.remote);
    std::size_t observations = 0;
    for (const std::vector<PeeringObservation>& obs_list : cooked_obs_) {
      for (const PeeringObservation& obs : obs_list) fold.absorb(obs);
      observations += obs_list.size();
    }
    const auto ignore = [](CfsFold::Handle) {};
    fold.constrain_all(0, ignore);
    for (const auto& set : aliases_.sets)
      fold.constrain_alias_set(set, 0, ignore);
    fold.fill_report(report);
    span.arg("observations", observations);
    span.arg("links", report.links.size());
  }
  report.aliases = aliases_;
  report.traces_used = traces_.size();
  report.iterations_run = 0;

  // ---- 8. snapshot + canonical bytes ----
  TraceSpan snapshot_span("stream.snapshot");
  StreamSnapshot snapshot;
  snapshot.epoch = ++epoch_;
  snapshot.last_ts_ns = last_ts_ns_;
  snapshot.trace_events = trace_events_;
  snapshot.churn_events = churn_events_;
  snapshot.pdb_events = pdb_events_;
  snapshot.fault_events = fault_events_;
  snapshot.vps_down = vps_down_.size();

  JsonValue report_json = report_to_json(report);
  // Metrics carry timings — never part of any byte-equivalence contract.
  report_json.as_object().erase("metrics");
  JsonValue::Object canon;
  canon.emplace("report", std::move(report_json));
  canon.emplace("last_ts_ns", snapshot.last_ts_ns);
  canon.emplace("trace_events", snapshot.trace_events);
  canon.emplace("churn_events", snapshot.churn_events);
  canon.emplace("pdb_events", snapshot.pdb_events);
  canon.emplace("fault_events", snapshot.fault_events);
  canon.emplace("vps_down", snapshot.vps_down);
  snapshot.canonical = JsonValue(std::move(canon)).dump();
  snapshot.report = std::move(report);
  snapshot_span.arg("bytes", snapshot.canonical.size());
  return snapshot;
}

}  // namespace cfs
