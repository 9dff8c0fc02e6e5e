// Concrete protocol plugins: raw TCP lines, HTTP, pgwire, JSON-lines
// (paper §IV-B1: "It currently supports unencrypted TCP ... PostgreSQL,
// HTTP, and JSON").
#pragma once

#include <memory>

#include "rddr/plugin.h"

namespace rddr::core {

/// Line-delimited raw TCP: each '\n'-terminated line is a unit. Used by
/// the ASLR echo scenario. With a filter pair, differing character
/// regions within a line are treated as noise.
class TcpLinePlugin : public ProtocolPlugin {
 public:
  std::string name() const override { return "tcp-line"; }
  std::unique_ptr<StreamFramer> make_framer(Direction dir) const override;
  void canonicalize(const Unit& unit, const CompareContext& ctx, Arena& arena,
                    CanonicalUnit& out) const override;
};

/// HTTP/1.1. Units are whole messages. Responses are compared line-wise
/// (start line + headers + body) after known-variance header filtering and
/// content decoding; the filter pair de-noises random regions; ephemeral
/// tokens (CSRF, session ids) are harvested on forward and restored per
/// instance on the request path (paper §IV-B3).
class HttpPlugin : public ProtocolPlugin {
 public:
  struct Options {
    /// §IV-B3 ephemeral-state handling (CSRF capture + per-instance
    /// restore). Off only for the ablation study.
    bool handle_ephemeral_state = true;
  };

  HttpPlugin() : opts_(Options{}) {}
  explicit HttpPlugin(Options opts) : opts_(opts) {}

  std::string name() const override { return "http"; }
  std::unique_ptr<StreamFramer> make_framer(Direction dir) const override;
  /// Parses the response, filters known-variance headers, decodes the
  /// content coding and canonicalises JSON — once per unit per batch.
  void canonicalize(const Unit& unit, const CompareContext& ctx, Arena& arena,
                    CanonicalUnit& out) const override;
  /// §IV-B3 token harvesting runs in the DiffEngine when enabled.
  bool harvest_tokens() const override { return opts_.handle_ephemeral_state; }
  /// The unit's own bytes unless it carries a harvested token.
  SharedBytes rewrite_for_instance(const Unit& unit, size_t instance,
                                   const CompareContext& ctx) const override;
  Bytes intervention_response() const override;
  /// 503 Service Unavailable with Retry-After (front-tier load shedding).
  Bytes overload_response() const override;

  /// Comparison form of a response (exposed for tests): start line +
  /// non-ignored header lines + decoded body lines.
  std::vector<std::string> comparable_lines(const Unit& unit,
                                            const KnownVariance* kv) const;

 private:
  Options opts_;
};

/// pgwire. Units are protocol messages. BackendKeyData and configured
/// ParameterStatus values are known variance (paper §IV-B4 — implemented
/// for the PostgreSQL plugin); everything else compares exactly, with
/// filter-pair masking as fallback.
class PgPlugin : public ProtocolPlugin {
 public:
  std::string name() const override { return "pgwire"; }
  std::unique_ptr<StreamFramer> make_framer(Direction dir) const override;
  void canonicalize(const Unit& unit, const CompareContext& ctx, Arena& arena,
                    CanonicalUnit& out) const override;
  /// The pgwire comparability class folds in the ParameterStatus name, so
  /// a class mismatch may be a name mismatch rather than a kind mismatch.
  std::string class_mismatch_reason(const std::vector<Unit>& units,
                                    size_t i) const override;
  Bytes intervention_response() const override;
  /// ErrorResponse with SQLSTATE 53300 (too_many_connections).
  Bytes overload_response() const override;
  /// Startup packet so a replayed journal lands in a valid session.
  Bytes resync_preamble() const override;
  /// Startup and Terminate belong to the original client connection, not
  /// the replay stream.
  bool replayable(const Unit& unit) const override;
};

}  // namespace rddr::core
