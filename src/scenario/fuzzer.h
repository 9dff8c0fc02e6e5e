// Protocol-aware adversarial fuzzer over generated topologies.
//
// A fuzz plan is a seeded schedule of adversarial client sessions against
// a Topology's entry edge, drawn from grammar-driven mutation families
// per protocol (length-field corruption, pipelining abuse, request
// smuggling variants, partial writes, slowloris-paced sends, mid-message
// connection drops, version-keyed secret probes). Sessions run as raw
// byte-stream clients on the virtual clock, optionally composed with
// netsim::FaultPlan chaos on the backend nodes, alongside a benign
// workload whose outcomes are fully accounted.
//
// run_fuzz checks the chaos harness's invariants, adapted to RDDR edges:
//   1. leak      — no client-received byte sequence contains the
//                  version-keyed secret marker (kStrict must block every
//                  response that could carry per-version data);
//   2. no hang   — zero live proxy sessions after the settle window
//                  (slowloris must be shed, aborted sessions torn down);
//   3. no lost   — every benign request resolves: issued == served +
//                  refused (an intervention-severed session is a visible
//                  refusal, never silence).
// Everything is deterministic per seed: same seed, byte-identical
// FuzzReport::summary() and divergence corpus.
//
// Failures shrink to a 1-minimal repro via the shared greedy drop pass
// (chaos/shrink.h): first whole sessions, then steps within sessions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "rddr/divergence.h"
#include "rddr/plugin.h"
#include "scenario/topology.h"

namespace rddr::scenario {

enum class MutationFamily {
  /// Valid pipelined traffic from an "attacker" source (control group).
  kBenignBurst,
  // -- pgwire --
  kPgLengthCorruption,   // Int32 length field lies (huge / < 4)
  kPgTypeFlip,           // non-printable message type byte
  kPgPipelineAbuse,      // one send() carrying a deep query pipeline
  kPgPartialWrite,       // message split at an awkward boundary, then resumed
  kPgSlowloris,          // bytes dripped below any progress threshold
  kPgMidMessageAbort,    // connection severed inside a message
  kPgStartupCorruption,  // malformed startup packet
  kPgSecretProbe,        // valid query for the version-keyed secret row
  // -- http --
  kHttpSmuggleTeCl,             // CL.TE desync across parser diversity
  kHttpClCorruption,            // Content-Length overclaims the body
  kHttpChunkCorruption,         // bogus chunk-size line
  kHttpPipelineMalformedMiddle, // valid, garbage, valid in one send
  kHttpSlowloris,               // header bytes dripped forever
  kHttpPartialAbort,            // half a request, then abort()
  kHttpSecretProbe,             // valid GET for the version-keyed secret
};

const char* family_name(MutationFamily f);

/// The families applicable to an entry edge speaking pgwire / HTTP.
std::vector<MutationFamily> families_for(bool pg_entry);

/// One timed action within an adversarial session.
struct AdvStep {
  enum class Action { kSend, kClose, kAbort };
  /// Delay after the previous step (or after connect for the first).
  sim::Time delay = 0;
  Action action = Action::kSend;
  Bytes bytes;  // kSend payload
};

/// One adversarial session: a connection opened at `at`, driven through
/// `steps`. Sessions from different ops overlap freely.
struct AdvOp {
  MutationFamily family = MutationFamily::kBenignBurst;
  sim::Time at = 0;
  std::vector<AdvStep> steps;
};

struct FuzzPlan {
  uint64_t seed = 0;
  int topology = 0;
  std::vector<AdvOp> ops;
};

std::string describe(const AdvOp& op);
std::string describe(const FuzzPlan& plan);

struct FuzzOptions {
  /// Topology kind, in [0, Topology::kKinds).
  int topology = 0;
  /// Benign sessions in the pure-benign prefix window, and again
  /// interleaved with the adversarial phase.
  size_t benign_sessions = 12;
  /// Length of the pure-benign prefix. Corpus records timestamped inside
  /// it are benign by construction — the miner's labelled window.
  sim::Time benign_window = 2 * sim::kSecond;
  /// Adversarial sessions generated per applicable family.
  int ops_per_family = 2;
  /// Quiet time after the last scheduled activity before invariants run.
  sim::Time settle = 2 * sim::kSecond;
  /// Known-variance rules for every RDDR edge (default = pre-mining).
  core::KnownVariance variance;
  /// Compose deterministic latency spikes / egress stalls on backend
  /// nodes with the adversarial schedule.
  bool compose_faults = false;
  /// Per-edge knobs, forwarded to TopologyOptions. idle_timeout 0 turns
  /// the slowloris shed off — the no-hang invariant's self-test.
  sim::Time unit_timeout = 250 * sim::kMillisecond;
  sim::Time idle_timeout = 600 * sim::kMillisecond;
};

struct FuzzReport {
  std::vector<std::string> violations;
  bool ok() const { return violations.empty(); }

  // Benign-workload accounting (no lost: issued == served + refused).
  uint64_t issued = 0;
  uint64_t served = 0;
  uint64_t refused = 0;
  uint64_t lost = 0;

  // Edge behaviour under attack.
  uint64_t interventions = 0;
  uint64_t quorum_outvotes = 0;
  uint64_t idle_sheds = 0;
  uint64_t unit_timeouts = 0;

  /// End of the pure-benign prefix (miner label boundary).
  sim::Time benign_until = 0;
  /// Every divergence the edges recorded, in bus order.
  std::vector<core::DivergenceRecord> corpus;
  /// Topology::describe() of the graph the plan ran against.
  std::string topology_desc;

  /// Deterministic single-string digest — the per-seed determinism
  /// comparison surface (same seed must reproduce it byte-for-byte).
  std::string summary() const;
};

/// Generates the seeded adversarial schedule: ops_per_family sessions for
/// every family applicable to the topology's entry protocol, staggered
/// after the benign prefix. Same (seed, opts), same plan.
FuzzPlan generate_fuzz_plan(uint64_t seed, const FuzzOptions& opts);

/// Executes the plan on a fresh simulator and checks the invariants.
FuzzReport run_fuzz(const FuzzPlan& plan, const FuzzOptions& opts);

/// generate + run.
FuzzReport run_fuzz_seed(uint64_t seed, const FuzzOptions& opts);

/// Greedy shrink of a failing plan to a 1-minimal repro preserving
/// "still violates some invariant": drops whole sessions, then steps
/// within surviving sessions. Deterministic; returns the plan unchanged
/// if it does not fail under `opts`.
FuzzPlan shrink_fuzz_plan(const FuzzPlan& plan, const FuzzOptions& opts);

}  // namespace rddr::scenario
