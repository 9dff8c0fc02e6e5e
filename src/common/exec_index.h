// Distributed execution index: a compact, deterministic call-path identity
// (Meiklejohn et al., "Distributed Execution Indexing").
//
// Every hop a request takes through the service graph appends one frame
// (site, seq): `site` names the static call site — FNV-1a over
// "service:callsite" — and `seq` distinguishes dynamic invocations of that
// site within the parent's execution (the i-th dial from the same handler).
// The frame stack uniquely identifies one dynamic call path from the
// originating edge request down to the hop where something happened, so a
// divergence caught three tiers deep can be attributed to the exact
// (request, hop, call site) — and the leaf site alone is a stable
// per-callsite dedup key.
//
// The index travels on sim::FlowContext (netsim/network.h) and is derived
// automatically at dial time: netsim keeps an ambient "current connection"
// while delivering to handlers, and Network::connect() extends the inbound
// index by one child frame. Determinism: sites hash static strings, seqs
// count per (parent connection, site) — both are functions of the simulated
// execution only, so indices are byte-identical across island layouts and
// thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/strutil.h"

namespace rddr {

class ExecutionIndex {
 public:
  /// One hop: which call site, and which dynamic invocation of it.
  struct Frame {
    uint64_t site = 0;  // site_id(service, callsite)
    uint32_t seq = 0;   // invocation ordinal within the parent execution
    friend bool operator==(const Frame& a, const Frame& b) {
      return a.site == b.site && a.seq == b.seq;
    }
  };

  /// Static call-site id: FNV-1a 64 over "service:callsite". `service` is
  /// the executing container ("mid-0", "edge-http"); `callsite` names the
  /// static dial point within it (conventionally the dialed address, or a
  /// role string like "catchup-shadow").
  static uint64_t site_id(const std::string& service,
                          const std::string& callsite) {
    return fnv1a64(callsite, fnv1a64(":", fnv1a64(service)));
  }

  /// Appends one frame in place and folds it into the incremental hash.
  void push(uint64_t site, uint32_t seq) {
    frames_.push_back({site, seq});
    hash_ ^= site;
    hash_ *= kFnv1a64Prime;
    hash_ ^= seq;
    hash_ *= kFnv1a64Prime;
  }
  void push(const std::string& service, const std::string& callsite,
            uint32_t seq) {
    push(site_id(service, callsite), seq);
  }

  /// Returns a copy extended by one frame (the index a child call carries).
  ExecutionIndex child(uint64_t site, uint32_t seq) const {
    ExecutionIndex c = *this;
    c.push(site, seq);
    return c;
  }
  ExecutionIndex child(const std::string& service, const std::string& callsite,
                       uint32_t seq) const {
    return child(site_id(service, callsite), seq);
  }

  bool empty() const { return frames_.empty(); }
  size_t depth() const { return frames_.size(); }
  const std::vector<Frame>& frames() const { return frames_; }

  /// Root frame: the originating edge request (first protected hop).
  const Frame& root() const { return frames_.front(); }
  /// Leaf frame: the call site closest to where the index was observed —
  /// the per-callsite dedup key.
  const Frame& leaf() const { return frames_.back(); }
  uint64_t leaf_site() const { return frames_.empty() ? 0 : frames_.back().site; }

  /// Incremental FNV-1a over the frame stack; equal for equal stacks.
  /// 0 for the empty index.
  uint64_t hash() const { return frames_.empty() ? 0 : hash_; }

  friend bool operator==(const ExecutionIndex& a, const ExecutionIndex& b) {
    return a.frames_ == b.frames_;
  }
  friend bool operator!=(const ExecutionIndex& a, const ExecutionIndex& b) {
    return !(a == b);
  }

  /// "a1b2c3d4#0/55aa..#2" — hex site ids joined by '/', '#seq' per frame.
  /// Empty index renders as "-".
  std::string describe() const {
    if (frames_.empty()) return "-";
    std::string out;
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (i) out += '/';
      out += strformat("%llx#%u",
                       static_cast<unsigned long long>(frames_[i].site),
                       frames_[i].seq);
    }
    return out;
  }

  /// Flat integer serialization: [site0, seq0, site1, seq1, ...].
  std::vector<uint64_t> serialize() const {
    std::vector<uint64_t> out;
    out.reserve(frames_.size() * 2);
    for (const Frame& f : frames_) {
      out.push_back(f.site);
      out.push_back(f.seq);
    }
    return out;
  }
  static ExecutionIndex deserialize(const std::vector<uint64_t>& ints) {
    ExecutionIndex idx;
    for (size_t i = 0; i + 1 < ints.size(); i += 2)
      idx.push(ints[i], static_cast<uint32_t>(ints[i + 1]));
    return idx;
  }

 private:
  std::vector<Frame> frames_;
  uint64_t hash_ = kFnv1a64Offset;
};

}  // namespace rddr
