#include "rddr/plugins.h"

#include <algorithm>
#include <cstring>

#include "common/strutil.h"
#include "proto/http/coding.h"
#include "proto/http/parser.h"
#include "proto/json/json.h"
#include "proto/pgwire/pgwire.h"
#include "rddr/diff_engine.h"

namespace rddr::core {

namespace {

// ---------- framers ----------

/// '\n'-delimited lines; never fails.
class LineFramer : public StreamFramer {
 public:
  void feed(ByteView data) override { buf_.append(data); }
  std::vector<Unit> take() override {
    std::vector<Unit> out;
    size_t nl;
    while ((nl = buf_.find('\n')) != Bytes::npos) {
      Unit u;
      u.data = buf_.substr(0, nl + 1);
      u.kind = "line";
      buf_.erase(0, nl + 1);
      out.push_back(std::move(u));
    }
    return out;
  }
  bool failed() const override { return false; }
  Bytes unconsumed() const override { return buf_; }

 private:
  Bytes buf_;
};

/// HTTP requests. Lenient framing: RDDR forwards original bytes, so its
/// own framing choice must never *hide* bytes from instances — anything
/// consumed is forwarded, anything unparseable flips the session to
/// pass-through.
class HttpRequestFramer : public StreamFramer {
 public:
  HttpRequestFramer() : parser_(lenient_options()) {}
  void feed(ByteView data) override { parser_.feed(data); }
  std::vector<Unit> take() override {
    std::vector<Unit> out;
    for (auto& req : parser_.take()) {
      Unit u;
      u.data = std::move(req.raw);
      u.kind = "http-req";
      out.push_back(std::move(u));
    }
    return out;
  }
  bool failed() const override { return parser_.failed(); }
  Bytes unconsumed() const override { return parser_.unconsumed(); }

  static http::ParserOptions lenient_options() {
    http::ParserOptions o;
    o.te_whitespace = http::TeWhitespace::kAnyWhitespace;
    o.reject_te_and_cl = false;
    o.reject_duplicate_cl = false;
    return o;
  }

 private:
  http::RequestParser parser_;
};

class HttpResponseFramer : public StreamFramer {
 public:
  HttpResponseFramer() : parser_(HttpRequestFramer::lenient_options()) {}
  void feed(ByteView data) override { parser_.feed(data); }
  std::vector<Unit> take() override {
    std::vector<Unit> out;
    for (auto& resp : parser_.take()) {
      Unit u;
      u.data = std::move(resp.raw);
      u.kind = "http-resp";
      out.push_back(std::move(u));
    }
    return out;
  }
  bool failed() const override { return parser_.failed(); }
  Bytes unconsumed() const override { return parser_.unconsumed(); }

 private:
  http::ResponseParser parser_;
};

class PgFramer : public StreamFramer {
 public:
  explicit PgFramer(bool expect_startup) : reader_(expect_startup) {}
  void feed(ByteView data) override { reader_.feed(data); }
  std::vector<Unit> take() override {
    std::vector<Unit> out;
    for (auto& msg : reader_.take()) {
      Unit u;
      if (msg.type == 0) {
        u.kind = "pg:startup";
        uint32_t len = static_cast<uint32_t>(msg.payload.size() + 4);
        put_u32_be(u.data, len);
        u.data += msg.payload;
      } else {
        u.kind = std::string("pg:") + msg.type;
        u.data.push_back(msg.type);
        put_u32_be(u.data, static_cast<uint32_t>(msg.payload.size() + 4));
        u.data += msg.payload;
      }
      out.push_back(std::move(u));
    }
    return out;
  }
  bool failed() const override { return reader_.failed(); }
  Bytes unconsumed() const override { return reader_.unconsumed(); }

 private:
  pg::MessageReader reader_;
};

/// Extracts a pg message payload back out of a framed unit.
ByteView pg_payload(const Unit& u) {
  if (u.kind == "pg:startup") return ByteView(u.data).substr(4);
  return ByteView(u.data).substr(5);
}

/// ParameterStatus name: the NUL-terminated first field of the payload.
ByteView pg_param_name(const Unit& u) {
  ByteView payload = pg_payload(u);
  size_t nul = payload.find('\0');
  return nul == ByteView::npos ? payload : payload.substr(0, nul);
}

}  // namespace

// ---------- TcpLinePlugin ----------

std::unique_ptr<StreamFramer> TcpLinePlugin::make_framer(Direction) const {
  return std::make_unique<LineFramer>();
}

void TcpLinePlugin::canonicalize(const Unit& unit, const CompareContext&,
                                 Arena& arena, CanonicalUnit& out) const {
  out.klass = unit.kind;
  out.what = ByteView("line");
  out.lines.push_back(arena, ByteView(unit.data));
}

// ---------- HttpPlugin ----------

std::unique_ptr<StreamFramer> HttpPlugin::make_framer(Direction dir) const {
  if (dir == Direction::kClientToServer)
    return std::make_unique<HttpRequestFramer>();
  return std::make_unique<HttpResponseFramer>();
}

void HttpPlugin::canonicalize(const Unit& unit, const CompareContext& ctx,
                              Arena& arena, CanonicalUnit& out) const {
  const KnownVariance* kv = ctx.variance;
  out.klass = unit.kind;
  out.what = ByteView("unit");
  out.per_line = true;
  http::ResponseParser parser(HttpRequestFramer::lenient_options());
  parser.feed(unit.data);
  auto msgs = parser.take();
  if (msgs.size() != 1) {
    // Unparseable: compare raw bytes as lines.
    for (const auto& l : split_lines(unit.data))
      out.lines.push_back(arena, arena.copy(l));
    return;
  }
  http::Response& resp = msgs[0];
  out.lines.push_back(arena,
                      arena.copy(resp.version + " " + std::to_string(resp.status) +
                                 " " + resp.reason));
  for (const auto& [name, value] : resp.headers.entries()) {
    bool ignored = false;
    if (kv) {
      for (const auto& ign : kv->http_ignore_headers)
        if (iequals(name, ign)) ignored = true;
    }
    if (!ignored) out.lines.push_back(arena, arena.copy(name + ": " + value));
  }
  // Body: decode content-coding, canonicalise JSON, then split to lines.
  Bytes body = resp.body;
  auto enc = resp.headers.get("Content-Encoding");
  if (enc && iequals(*enc, "xz77")) {
    auto decoded = http::xz77_decompress(body);
    if (decoded) body = std::move(*decoded);
    else out.lines.push_back(arena, ByteView("!undecodable-content-coding"));
  }
  auto ctype = resp.headers.get("Content-Type");
  if (opts_.canonicalize_json && ctype &&
      ifind(*ctype, "json") != std::string::npos) {
    auto doc = json::parse(body);
    if (doc) {
      out.lines.push_back(arena, arena.copy(doc->dump()));
      return;
    }
  }
  for (const auto& l : split_lines(body)) {
    if (kv) {
      bool skip = false;
      for (const auto& pre : kv->http_ignore_line_prefixes)
        if (starts_with(l, pre)) skip = true;
      if (skip) continue;
    }
    out.lines.push_back(arena, arena.copy(l));
  }
}

std::vector<std::string> HttpPlugin::comparable_lines(
    const Unit& unit, const KnownVariance* kv) const {
  Arena arena(4096);
  CanonicalUnit canon;
  CompareContext ctx;
  ctx.variance = kv;
  canonicalize(unit, ctx, arena, canon);
  std::vector<std::string> lines;
  lines.reserve(canon.lines.size());
  for (ByteView v : canon.lines) lines.emplace_back(v);
  return lines;
}

Bytes HttpPlugin::on_forward_downstream(const std::vector<Unit>& units,
                                        const CompareContext& ctx) const {
  // Harvest ephemeral tokens (CSRF, session ids): alphanumeric runs >= 10
  // chars that differ across ALL instances (paper §IV-B3). Standalone
  // callers get a fresh engine pass; proxies call their own engine's
  // forward_downstream, which reuses the compare's canonical forms.
  thread_local DiffEngine engine;
  return engine.forward_downstream(*this, units, ctx);
}

Bytes HttpPlugin::rewrite_for_instance(const Unit& unit, size_t instance,
                                       const CompareContext& ctx) const {
  if (!opts_.handle_ephemeral_state || !ctx.session ||
      ctx.session->tokens.empty())
    return unit.data;
  // Find tokens present in this request.
  bool any = false;
  for (const auto& [canonical, _] : ctx.session->tokens) {
    if (unit.data.find(canonical) != Bytes::npos) {
      any = true;
      break;
    }
  }
  if (!any) return unit.data;

  // Re-frame so Content-Length stays correct if token lengths differ.
  http::RequestParser parser(HttpRequestFramer::lenient_options());
  parser.feed(unit.data);
  auto msgs = parser.take();
  std::vector<std::string> used;
  Bytes out;
  if (msgs.size() == 1) {
    http::Request& req = msgs[0];
    for (const auto& [canonical, per_instance] : ctx.session->tokens) {
      const std::string& mine = per_instance[instance];
      if (req.body.find(canonical) != Bytes::npos ||
          req.target.find(canonical) != std::string::npos) {
        req.body = replace_all(req.body, canonical, mine);
        req.target = replace_all(req.target, canonical, mine);
        used.push_back(canonical);
      }
      http::HeaderMap rewritten;
      bool header_hit = false;
      for (const auto& [name, value] : req.headers.entries()) {
        if (value.find(canonical) != std::string::npos) {
          rewritten.add(name, replace_all(value, canonical, mine));
          header_hit = true;
        } else {
          rewritten.add(name, value);
        }
      }
      if (header_hit) {
        req.headers = std::move(rewritten);
        used.push_back(canonical);
      }
    }
    req.headers.set("Content-Length", std::to_string(req.body.size()));
    out = req.to_bytes();
  } else {
    // Could not re-frame: raw replacement (token lengths match in all our
    // generators, so Content-Length is preserved).
    out = unit.data;
    for (const auto& [canonical, per_instance] : ctx.session->tokens) {
      if (out.find(canonical) != Bytes::npos) {
        out = replace_all(out, canonical, per_instance[instance]);
        used.push_back(canonical);
      }
    }
  }
  // "Because they are ephemeral, tokens are deleted after forwarding" —
  // once the LAST instance's copy was rewritten.
  if (ctx.session->delete_tokens_after_use &&
      instance + 1 == ctx.session->n_instances) {
    std::sort(used.begin(), used.end());
    used.erase(std::unique(used.begin(), used.end()), used.end());
    for (const auto& c : used) ctx.session->tokens.erase(c);
  }
  return out;
}

Bytes HttpPlugin::intervention_response() const {
  http::Response resp = http::make_response(
      403,
      "<html><head><title>RDDR</title></head><body>"
      "<h1>RDDR intervened</h1>"
      "<p>The replicated instances of this service disagreed about the "
      "response to your request. The connection has been closed to prevent "
      "a potential information leak.</p></body></html>");
  resp.headers.set("Connection", "close");
  return resp.to_bytes();
}

Bytes HttpPlugin::overload_response() const {
  http::Response resp = http::make_response(
      503,
      "<html><head><title>RDDR</title></head><body>"
      "<h1>503 Service Unavailable</h1>"
      "<p>The front tier is at capacity; the request was shed before "
      "reaching the service. Retry shortly.</p></body></html>");
  resp.headers.set("Connection", "close");
  resp.headers.set("Retry-After", "1");
  return resp.to_bytes();
}

// ---------- PgPlugin ----------

std::unique_ptr<StreamFramer> PgPlugin::make_framer(Direction dir) const {
  return std::make_unique<PgFramer>(dir == Direction::kClientToServer);
}

void PgPlugin::canonicalize(const Unit& unit, const CompareContext& ctx,
                            Arena& arena, CanonicalUnit& out) const {
  const KnownVariance* kv = ctx.variance;
  const std::string& kind = unit.kind;
  out.klass = kind;
  if (kind == "pg:K") {
    // BackendKeyData is always instance-specific.
    out.exempt = !kv || kv->pg_ignore_backend_key;
  } else if (kind == "pg:S") {
    // ParameterStatus: the name is part of the comparability class (names
    // must agree); configured names may vary in value.
    ByteView name = pg_param_name(unit);
    char* k = static_cast<char*>(arena.alloc(kind.size() + 1 + name.size(), 1));
    std::memcpy(k, kind.data(), kind.size());
    k[kind.size()] = '\0';
    if (!name.empty()) std::memcpy(k + kind.size() + 1, name.data(), name.size());
    out.klass = ByteView(k, kind.size() + 1 + name.size());
    if (kv) {
      for (const auto& ign : kv->pg_ignore_params)
        if (name == ign) out.exempt = true;
    }
    out.what = ByteView("ParameterStatus");
    out.lines.push_back(arena, ByteView(unit.data));
    return;
  } else if (kind == "pg:Q") {
    // Query merge (outgoing proxy): compare SQL text so divergence reasons
    // are readable ("...WHERE id = ''' OR ..." beats raw frame bytes).
    out.what = ByteView("Query SQL");
    auto q = pg::parse_query(pg_payload(unit));
    out.lines.push_back(arena, q ? arena.copy(*q) : ByteView(unit.data));
    return;
  }
  out.what = arena.copy(
      "message " + pg::type_name(kind.size() > 3 ? kind[3] : '?'));
  out.lines.push_back(arena, ByteView(unit.data));
}

std::string PgPlugin::class_mismatch_reason(const std::vector<Unit>& units,
                                            size_t i) const {
  if (units[i].kind != units[0].kind)
    return ProtocolPlugin::class_mismatch_reason(units, i);
  // Same kind, so the class split was the ParameterStatus name.
  return "ParameterStatus name mismatch: " + std::string(pg_param_name(units[0])) +
         " vs " + std::string(pg_param_name(units[i]));
}

Bytes PgPlugin::intervention_response() const {
  return pg::build_error("RDDRX",
                         "RDDR intervened: instance responses diverged; "
                         "connection aborted to prevent information leak");
}

Bytes PgPlugin::overload_response() const {
  return pg::build_error("53300",
                         "RDDR front tier at capacity: connection shed "
                         "before reaching the instances; retry shortly");
}

Bytes PgPlugin::resync_preamble() const {
  // The journal holds mid-session Query units; a fresh replay connection
  // needs the handshake the original client performed long ago.
  return pg::build_startup({{"user", "postgres"}, {"database", "app"}});
}

bool PgPlugin::replayable(const Unit& unit) const {
  // A client that handshakes or disconnects while an instance is away
  // must not inject a second startup (which desyncs pgwire framing) or a
  // Terminate (which would cut the replay stream short) mid-replay.
  return unit.kind != "pg:startup" && unit.kind != "pg:X";
}

// ---------- JsonLinesPlugin ----------

std::unique_ptr<StreamFramer> JsonLinesPlugin::make_framer(Direction) const {
  return std::make_unique<LineFramer>();
}

void JsonLinesPlugin::canonicalize(const Unit& unit, const CompareContext&,
                                   Arena& arena, CanonicalUnit& out) const {
  out.klass = unit.kind;
  out.what = ByteView("json document");
  // Canonicalise the document; malformed docs compare as raw bytes.
  auto doc = json::parse(trim(unit.data));
  out.lines.push_back(arena, doc ? arena.copy(doc->dump()) : ByteView(unit.data));
}

}  // namespace rddr::core
