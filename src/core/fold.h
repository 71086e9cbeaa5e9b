// The CFS fold kernel: Steps 2-3 of Constrained Facility Search and the
// final link typing over dense state, shared by both engines.
//
// The kernel owns the address interner (util/intern.h), the SoA interface
// table (core/iface_table.h) and the slot-stable observation store
// (core/obs_store.h). It knows the merge rule, how to apply one Step-2
// plan (core/rules.h) and one alias set, and how to turn the folded state
// into report interfaces and typed links. It does not know which
// observations to revisit: Step 2 and Step 3 report every candidate-set
// change through an `on_change(handle)` callback, and the engine decides.
//
//   * The batch engine (core/cfs.cpp) keeps one kernel for the whole run.
//     Its callback feeds the dirty/pending slot worklist and the alias-set
//     change clock, and it re-applies Steps 2-3 inside the follow-up loop.
//   * The stream engine (stream/engine.cpp) builds a fresh kernel per
//     epoch, absorbs every observation in trace order, runs one Step-2 pass
//     and one alias pass at iteration 0, and ignores the callback.
//
// Because both run the same code over the same store, a one-epoch stream
// fold equals batch CFS with one iteration and no follow-ups on every
// link and link endpoint (tests/stream/kernel_equivalence_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/classify.h"
#include "core/iface_table.h"
#include "core/obs_store.h"
#include "core/remote.h"
#include "core/report.h"
#include "core/rules.h"
#include "data/corpus/trace_store.h"
#include "data/facility_db.h"
#include "util/intern.h"
#include "util/setops.h"
#include "util/thread_pool.h"

namespace cfs {

class CfsFold {
 public:
  using Handle = IfaceTable::Handle;

  // `topo` and `db` must outlive the kernel; the stream engine's database
  // changes between epochs, never during one.
  CfsFold(const Topology& topo, const FacilityDatabase& db,
          const RemoteDetectorConfig& remote)
      : topo_(topo), db_(db), detector_(remote) {}

  // Interns `addr` and grows the interface table to cover it. The batch
  // engine also interns plain hop addresses (its trace index); such rows
  // stay absent until an observation touches them.
  Handle intern(Ipv4 addr) {
    const Handle h = addrs_.intern(addr);
    ifaces_.ensure_rows(addrs_.size());
    return h;
  }
  [[nodiscard]] std::optional<Handle> find(Ipv4 addr) const {
    return addrs_.find(addr);
  }
  [[nodiscard]] std::size_t handles() const { return addrs_.size(); }

  [[nodiscard]] const IfaceTable& ifaces() const { return ifaces_; }
  [[nodiscard]] ObsStore& store() { return store_; }

  struct Absorbed {
    bool created = false;  // slot minted or revived
    bool changed = false;  // an existing slot's RTT minimum moved
    ObsStore::Slot slot = 0;
    Handle near = 0;
    Handle far = 0;
  };
  // The merge rule: the first observation of a (near, far) pair wins its
  // fields, later ones only lower the per-pair RTT minima; both endpoints
  // are touched (the last classification wins the ASN) and the near end
  // records the vantage point.
  Absorbed absorb(const PeeringObservation& obs);

  // Step 2 for the observation in `slot`: applies plan_step2's actions to
  // the endpoint rows in plan order.
  template <class OnChange>
  void constrain_observation(ObsStore::Slot slot, int iteration,
                             OnChange&& on_change) {
    const PeeringObservation& obs = store_.value(slot);
    const Step2Plan plan = plan_step2(topo_, db_, detector_, obs);
    for (int i = 0; i < plan.n_acts; ++i) {
      const Step2Plan::Action& a = plan.acts[i];
      const Handle h = *addrs_.find(a.side == Step2Plan::Side::Near
                                        ? obs.near_addr
                                        : obs.far_addr);
      if (a.mark_remote) ifaces_.mark_remote(h);
      if (a.allowed != nullptr &&
          ifaces_.constrain(h, a.allowed, a.n, iteration))
        on_change(h);
      if (a.record_ixp) ifaces_.add_queried_ixp(h, obs.ixp);
    }
  }

  // One Step-2 pass over every live observation in ascending key order.
  template <class OnChange>
  void constrain_all(int iteration, OnChange&& on_change) {
    for (const ObsStore::Slot slot : store_.order())
      if (store_.live(slot)) constrain_observation(slot, iteration, on_change);
  }

  // Step 3 for one alias set: narrows every observed member to the
  // intersection of the constrained members' candidate sets (a no-op when
  // no member is constrained or the intersection is empty).
  template <class OnChange>
  void constrain_alias_set(const std::vector<Ipv4>& set, int iteration,
                           OnChange&& on_change) {
    if (set.size() < 2) return;
    common_.clear();
    bool first = true;
    for (const Ipv4 addr : set) {
      const auto h = addrs_.find(addr);
      if (!h || !ifaces_.present(*h) || !ifaces_.has_constraint(*h)) continue;
      const FacilityId* data = ifaces_.cand_data(*h);
      const std::uint32_t n = ifaces_.cand_size(*h);
      if (first) {
        common_.assign(data, data + n);
        first = false;
      } else {
        common_.resize(
            intersect_in_place(common_.data(), common_.size(), data, n));
      }
    }
    if (common_.empty()) return;
    for (const Ipv4 addr : set) {
      const auto h = addrs_.find(addr);
      if (!h || !ifaces_.present(*h)) continue;
      if (ifaces_.constrain(*h, common_.data(), common_.size(), iteration))
        on_change(*h);
    }
  }

  // Fills report.interfaces with every present row and report.links with
  // one typed link per live observation in key order, then applies the
  // switch-proximity fallback to public far ends still ambiguous (paper
  // Section 4.4). The caller fills the remaining report fields.
  void fill_report(CfsReport& report);

 private:
  const Topology& topo_;
  const FacilityDatabase& db_;
  RemotePeeringDetector detector_;
  Interner<Ipv4> addrs_;
  IfaceTable ifaces_;  // rows by handle; present() == "is a peering iface"
  ObsStore store_;
  std::vector<FacilityId> common_;  // Step-3 scratch
};

// Classifies rows `indices` (ascending) of `traces` into index-ordered
// slots, fanning across `pool` when one is given and the range is large
// enough to pay for it, so the caller's serial fold over the slots is
// order-identical to a serial loop. Each worker chunk records a
// `chunk_span` timeline span. Spilled rows are materialized into per-chunk
// scratch and their pages dropped once the chunk is classified.
[[nodiscard]] std::vector<std::vector<PeeringObservation>> classify_range(
    const HopClassifier& classifier, const corpus::TraceStore& traces,
    const std::vector<std::uint32_t>& indices, ThreadPool* pool,
    const char* chunk_span);

}  // namespace cfs
