// Divergence attribution: one reporting surface for every divergence.
//
// Every RDDR proxy guarding one protected microservice reports each
// divergence — interventions and quorum outvotes alike — as a
// DivergenceRecord into the deployment's DivergenceBus: it logs the
// record, folds it into a per-callsite dedup table keyed by the record's
// attribution key (`proto|kind|cs=<leaf site>` — the execution-index
// flavoured corner of the corpus fingerprint space, see
// scenario/corpus.h), and hands it to every record listener.
//
// The record stream is also the cross-proxy abort channel: each proxy
// subscribes to it and, on an intervention reported by a sibling proxy,
// aborts its own sessions. When the outgoing request proxy detects
// divergence in backend-bound traffic the incoming proxy must abort the
// client session too (the information leak must not reach the client even
// though it was caught behind the instances).
//
// Records carry the full execution index (common/exec_index.h): the
// originating edge request (root frame), the hop chain, and the exact call
// site that issued the diverging call (leaf frame).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/exec_index.h"
#include "common/strutil.h"
#include "netsim/simulator.h"

namespace rddr::core {

/// One divergence, enriched for attribution and the scenario-factory
/// corpus: protocol, verdict class, the canonical diff region located by
/// the DiffEngine, the instance-0 unit the region refers to, and the flow
/// identity — trace id plus the execution index of the connection whose
/// traffic diverged. Proxies report one of these for every intervention
/// AND every quorum outvote (outvoted minorities are absorbed, not
/// aborted; only interventions make sibling proxies abort).
struct DivergenceRecord {
  sim::Time time = 0;
  std::string proxy;      // reporting proxy's name (the topology edge)
  std::string protocol;   // ProtocolPlugin::name()
  std::string verdict;    // "intervention" | "outvote"
  std::string reason;     // DiffEngine reason string
  std::string unit_kind;  // instance-0 unit kind ("pg:S", "http-resp", ...)
  Bytes unit_data;        // instance-0 unit bytes (empty when unknown)
  // BatchVerdict::Region of the first divergence (line == SIZE_MAX when
  // the divergence was structural or located outside a compare).
  size_t region_line = SIZE_MAX;
  size_t region_offset = 0;
  size_t region_instance = SIZE_MAX;
  // Flow attribution: the trace of the originating edge request (0 when
  // untraced) and the execution index of the diverging flow — root frame =
  // edge request, leaf frame = the call site that issued this hop. Empty
  // index: the divergence happened outside any indexed flow.
  uint64_t trace_id = 0;
  ExecutionIndex index;

  bool is_intervention() const { return verdict == "intervention"; }
};

/// Per-callsite dedup key: `protocol|unit_kind|cs=<hex leaf site>`. Joins
/// the corpus fingerprint space (scenario/corpus.h) with the call site as
/// the distinguishing dimension — every divergence the same static call
/// site causes collapses to one key, however many requests hit it.
/// `cs=0` when the record carries no index.
inline std::string attribution_key(const DivergenceRecord& r) {
  return r.protocol + "|" + r.unit_kind +
         strformat("|cs=%llx",
                   static_cast<unsigned long long>(r.index.leaf_site()));
}

/// The one reporting surface: every proxy reports every divergence here.
class DivergenceBus {
 public:
  using RecordListener = std::function<void(const DivergenceRecord&)>;

  /// Subscribes to every record (interventions and outvotes).
  void subscribe_records(RecordListener l) {
    record_listeners_.push_back(std::move(l));
  }

  /// Logs the record, folds it into the per-callsite dedup table and
  /// notifies record listeners.
  void report(const DivergenceRecord& rec) {
    records_.push_back(rec);
    ++callsites_[attribution_key(rec)];
    if (rec.is_intervention()) ++interventions_;
    // Index-based: listeners may subscribe re-entrantly (growing the
    // vector, possibly reallocating), so re-read size each step and copy
    // the callable out before invoking it. No per-record vector copy —
    // this is on the fuzz-sweep hot path.
    for (size_t i = 0; i < record_listeners_.size(); ++i) {
      RecordListener l = record_listeners_[i];
      l(rec);
    }
  }

  /// Intervention count — outvote records don't count.
  size_t count() const { return interventions_; }

  /// Every record reported (interventions and outvotes), in order.
  const std::vector<DivergenceRecord>& records() const { return records_; }

  /// Per-callsite dedup table: attribution_key -> occurrences. Sorted map
  /// for deterministic iteration.
  const std::map<std::string, uint64_t>& callsites() const {
    return callsites_;
  }
  size_t unique_callsites() const { return callsites_.size(); }

  void clear() {
    records_.clear();
    callsites_.clear();
    interventions_ = 0;
  }

 private:
  std::vector<RecordListener> record_listeners_;
  std::vector<DivergenceRecord> records_;
  std::map<std::string, uint64_t> callsites_;
  size_t interventions_ = 0;
};

}  // namespace rddr::core
