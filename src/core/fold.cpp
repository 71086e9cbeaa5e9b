#include "core/fold.h"

#include <algorithm>

#include "core/proximity.h"
#include "util/trace.h"

namespace cfs {

CfsFold::Absorbed CfsFold::absorb(const PeeringObservation& obs) {
  Absorbed result;
  const ObsStore::FindOrCreate fc =
      store_.find_or_create(obs.near_addr, obs.far_addr);
  result.slot = fc.slot;
  if (fc.created) {
    store_.value(fc.slot) = obs;
    result.created = true;
  } else {
    PeeringObservation& cur = store_.value(fc.slot);
    const PeeringObservation before = cur;
    cur.near_rtt_ms = std::min(cur.near_rtt_ms, obs.near_rtt_ms);
    cur.far_rtt_ms = std::min(cur.far_rtt_ms, obs.far_rtt_ms);
    result.changed = !(before == cur);
  }

  result.near = intern(obs.near_addr);
  ifaces_.touch(result.near, obs.near_addr, obs.near_as);
  ifaces_.note_seen_from(result.near, obs.vp);
  result.far = intern(obs.far_addr);
  ifaces_.touch(result.far, obs.far_addr, obs.far_as);
  return result;
}

void CfsFold::fill_report(CfsReport& report) {
  report.interfaces.reserve(ifaces_.present_count());
  for (Handle h = 0; h < static_cast<Handle>(ifaces_.rows()); ++h)
    if (ifaces_.present(h))
      report.interfaces.emplace(ifaces_.addr(h), ifaces_.materialize(h));

  ProximityHeuristic proximity;
  for (const ObsStore::Slot slot : store_.order()) {
    if (!store_.live(slot)) continue;
    const PeeringObservation& obs = store_.value(slot);
    LinkInference link;
    link.obs = obs;
    const auto* near = report.find(obs.near_addr);
    const auto* far = report.find(obs.far_addr);
    if (near != nullptr && near->resolved())
      link.near_facility = near->facility();
    if (far != nullptr && far->resolved()) link.far_facility = far->facility();

    const LinkTypeDecision decision = classify_link_type(
        db_, detector_, obs, near != nullptr && near->remote_suspect);
    link.type = decision.type;
    if (obs.kind == PeeringKind::Public && link.near_facility &&
        link.far_facility && !decision.far_remote)
      proximity.observe(obs.ixp, *link.near_facility, *link.far_facility);
    report.links.push_back(std::move(link));
  }

  for (LinkInference& link : report.links) {
    if (link.obs.kind != PeeringKind::Public) continue;
    if (link.far_facility || !link.near_facility) continue;
    const auto* far = report.find(link.obs.far_addr);
    if (far == nullptr || !far->has_constraint) continue;
    const auto inferred = proximity.infer_far(
        link.obs.ixp, *link.near_facility, far->candidates);
    if (inferred) {
      link.far_facility = inferred;
      link.far_by_proximity = true;
    }
  }
}

std::vector<std::vector<PeeringObservation>> classify_range(
    const HopClassifier& classifier, const corpus::TraceStore& traces,
    const std::vector<std::uint32_t>& indices, ThreadPool* pool,
    const char* chunk_span) {
  // Below this the fan-out overhead beats the classification work itself.
  constexpr std::size_t kParallelThreshold = 32;
  std::vector<std::vector<PeeringObservation>> out(indices.size());
  if (pool != nullptr && indices.size() >= kParallelThreshold) {
    // Chunk boundaries are a pure function of (n, workers), so the chunk
    // spans describe the same work at any thread count. Each chunk owns
    // its scratch and cursor, so spilled reads are race-free by
    // construction, and chunk row ranges are disjoint (indices ascend),
    // so the trailing page release only drops rows this chunk is done with.
    pool->parallel_for_chunks(
        indices.size(), [&](std::size_t begin, std::size_t end) {
          TraceSpan chunk(chunk_span);
          chunk.arg("begin", begin);
          chunk.arg("count", end - begin);
          TraceResult scratch;
          corpus::TraceCorpusReader::Cursor cursor;
          for (std::size_t i = begin; i < end; ++i)
            out[i] = classifier.classify(traces.at(indices[i], scratch, &cursor));
          if (traces.spilled() && end > begin)
            traces.release_range(indices[begin], indices[end - 1] + 1);
        });
  } else {
    TraceResult scratch;
    corpus::TraceCorpusReader::Cursor cursor;
    for (std::size_t i = 0; i < indices.size(); ++i)
      out[i] = classifier.classify(traces.at(indices[i], scratch, &cursor));
    if (traces.spilled() && !indices.empty())
      traces.release_range(indices.front(), indices.back() + 1);
  }
  return out;
}

}  // namespace cfs
