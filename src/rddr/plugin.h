// RDDR protocol plugin interface (paper §IV-B1).
//
// "Support for application layer protocols is implemented by modules that
// comply with a standard interface" — this is that interface. A plugin
// supplies (a) stream framers that cut each direction of a connection into
// comparable units, (b) the differencing logic (with de-noising and
// known-variance rules), (c) ephemeral-state handling (CSRF token capture
// and per-instance restore), and (d) the intervention response emitted to
// the client when RDDR blocks.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "rddr/arena.h"

namespace rddr::core {

/// One comparable protocol unit (an HTTP message, a pgwire message, a
/// line, ...). `data` is the exact wire form, suitable for forwarding.
struct Unit {
  Bytes data;
  /// Protocol-specific tag for quick structural checks ("http", "pg:Q",
  /// "pg:D", "line", ...). Units with different kinds always diverge.
  std::string kind;
};

/// Cuts one direction of a byte stream into Units. Implementations wrap
/// the proto parsers. After `failed()`, `unconsumed()` returns the bytes
/// the framer could not interpret; proxies fall back to pass-through.
class StreamFramer {
 public:
  virtual ~StreamFramer() = default;
  virtual void feed(ByteView data) = 0;
  virtual std::vector<Unit> take() = 0;
  virtual bool failed() const = 0;
  virtual Bytes unconsumed() const = 0;
};

/// Which way a framer faces.
enum class Direction {
  kClientToServer,  // requests (replicated / merged)
  kServerToClient,  // responses (diffed)
};

/// Manually configured benign divergence (paper §IV-B4). Deterministic
/// differences that de-noising cannot learn (the filter pair agrees on
/// them) are declared here.
struct KnownVariance {
  /// pgwire ParameterStatus names whose values may differ (e.g.
  /// "server_version" when running version diversity).
  std::vector<std::string> pg_ignore_params = {"server_version",
                                               "application_name"};
  /// BackendKeyData is always instance-specific.
  bool pg_ignore_backend_key = true;
  /// HTTP headers whose values may differ across implementations.
  std::vector<std::string> http_ignore_headers = {"Server", "Date"};
  /// Body lines starting with any of these prefixes are skipped entirely
  /// (e.g. a version banner in a health endpoint).
  std::vector<std::string> http_ignore_line_prefixes;
};

/// Per-client-session state shared between compare/forward/rewrite calls.
/// Most importantly holds the ephemeral-token table: canonical value (the
/// forwarded instance-0 token) -> each instance's own value.
struct SessionState {
  size_t n_instances = 0;
  /// canonical token -> per-instance tokens ([i] for instance i).
  std::map<std::string, std::vector<std::string>> tokens;
  /// Tokens are deleted after one use (paper §IV-B3); the DVWA session
  /// cookie style of reuse can disable this.
  bool delete_tokens_after_use = true;
};

/// The canonical comparable form of one Unit, produced exactly once per
/// unit per batch by ProtocolPlugin::canonicalize() and consumed by the
/// batched DiffEngine (rddr/diff_engine.h). All views either alias the
/// source Unit or live in the batch arena; both outlive the batch.
struct CanonicalUnit {
  /// Comparability class. Units whose classes differ diverge before any
  /// content is examined (the old "kind mismatch" check, plus protocol
  /// extras such as the pgwire ParameterStatus name).
  ByteView klass;
  /// Human label for divergence reasons on blob-granular protocols
  /// ("line", "json document", "Query SQL", "message DataRow", ...).
  ByteView what;
  /// Agrees by definition under the known-variance rules (BackendKeyData,
  /// ignored ParameterStatus names); content is never compared.
  bool exempt = false;
  /// Line-granular reasons ("instance 2: line 5 differs ...", the HTTP
  /// style) instead of blob reasons ("Query SQL differs across
  /// instances"). Also controls which members the masked walk re-checks,
  /// mirroring the historical pairwise code paths exactly.
  bool per_line = false;
  /// The comparable content, split at comparison granularity: one entry
  /// per line for line-oriented protocols, a single entry holding the
  /// whole canonical blob otherwise.
  ArenaVec<ByteView> lines;
};

/// Context for one compare call.
struct CompareContext {
  /// Instances 0 and 1 are an identical-image filter pair whose mutual
  /// differences are treated as nondeterministic noise (paper §IV-B2).
  bool filter_pair = false;
  const KnownVariance* variance = nullptr;
  SessionState* session = nullptr;
};

class ProtocolPlugin {
 public:
  virtual ~ProtocolPlugin() = default;

  virtual std::string name() const = 0;

  virtual std::unique_ptr<StreamFramer> make_framer(Direction dir) const = 0;

  /// Decomposes one unit into its canonical comparable form. Called by
  /// the DiffEngine exactly once per unit per batch (this is where the
  /// old call pattern re-canonicalised N times: once for the full
  /// compare, once per leave-one-out subset, once again on forward).
  /// Scratch storage comes from the batch arena. The default treats the
  /// unit as an opaque blob keyed by its kind.
  virtual void canonicalize(const Unit& unit, const CompareContext& ctx,
                            Arena& arena, CanonicalUnit& out) const {
    (void)ctx;
    out.klass = unit.kind;
    out.what = ByteView("unit");
    out.lines.push_back(arena, ByteView(unit.data));
  }

  /// Reason string when instance i's comparability class differs from
  /// instance 0's. Protocols with classes richer than the unit kind
  /// override this to keep their historical reason texts.
  virtual std::string class_mismatch_reason(const std::vector<Unit>& units,
                                            size_t i) const {
    return "unit kind mismatch: instance 0 sent " + units[0].kind +
           ", instance " + std::to_string(i) + " sent " + units[i].kind;
  }

  /// True when the DiffEngine should run ephemeral-token detection over
  /// the canonical lines of a unanimous batch and harvest the hits into
  /// the session (paper §IV-B3). Only HTTP opts in.
  virtual bool harvest_tokens() const { return false; }

  /// Called after a successful compare, before forwarding instance 0's
  /// unit to the client. May harvest ephemeral tokens into the session and
  /// may rewrite the forwarded bytes. Default: forward instance 0 as-is.
  virtual Bytes on_forward_downstream(const std::vector<Unit>& units,
                                      const CompareContext& ctx) const {
    (void)ctx;
    return units[0].data;
  }

  /// Rewrites a client->server unit for a specific instance (restores that
  /// instance's own ephemeral tokens). Default: forward unchanged.
  virtual Bytes rewrite_for_instance(const Unit& unit, size_t instance,
                                     const CompareContext& ctx) const {
    (void)instance;
    (void)ctx;
    return unit.data;
  }

  /// True iff rewrite_for_instance is the identity for EVERY unit, instance
  /// and session state — the proxy then fans one shared buffer out to all N
  /// instances instead of materialising N rewrites. A plugin overriding
  /// rewrite_for_instance MUST leave this false (or return false whenever a
  /// rewrite could fire); claiming identity while rewriting would silently
  /// send un-rewritten bytes. Deliberately defaults to false so forgetting
  /// the flag costs copies, never correctness.
  virtual bool rewrites_identity() const { return false; }

  /// Whether a client->server unit may be re-sent on a fresh connection
  /// when journal-replaying or catch-up shadowing a recovering instance.
  /// Session establishment/teardown units must not be: the replay
  /// connection opens with resync_preamble() and closes on its own.
  /// Default: every unit replays.
  virtual bool replayable(const Unit& unit) const {
    (void)unit;
    return true;
  }

  /// Bytes to send to the client when RDDR intervenes. Empty => just
  /// close the connection (the pgwire behaviour).
  virtual Bytes intervention_response() const { return {}; }

  /// Bytes to send to a client the front tier sheds under overload — a
  /// fast, protocol-correct rejection ("try again later"), distinct from
  /// the security intervention above. Defaults to the intervention
  /// response; protocols with a native overload signal override (HTTP
  /// 503, pgwire SQLSTATE 53300).
  virtual Bytes overload_response() const { return intervention_response(); }

  /// Opening bytes for a proxy-originated connection to one instance (the
  /// resync journal replay): whatever the protocol requires before
  /// request units are accepted — a pgwire startup packet, nothing for
  /// HTTP. Empty (default) means units can be sent immediately.
  virtual Bytes resync_preamble() const { return {}; }
};

}  // namespace rddr::core
