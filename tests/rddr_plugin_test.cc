// Unit tests for the protocol plugins: framing, diffing, known variance,
// ephemeral-token capture/restore.
#include <gtest/gtest.h>

#include "proto/http/coding.h"
#include "proto/http/parser.h"
#include "proto/pgwire/pgwire.h"
#include "rddr/diff_engine.h"
#include "rddr/plugins.h"

namespace rddr::core {
namespace {

Unit make_unit(Bytes data, std::string kind) {
  return Unit{std::move(data), std::move(kind)};
}

/// Strict N-way compare through the one comparison implementation, the
/// DiffEngine (the proxies hold their own engine and vote mode).
BatchVerdict compare(const ProtocolPlugin& plugin,
                     const std::vector<Unit>& units,
                     const CompareContext& ctx) {
  DiffEngine engine;
  return engine.compare(plugin, units, ctx, VoteMode::kStrict);
}

Unit http_response_unit(int status, const std::string& body,
                        const std::string& content_type = "text/html") {
  http::Response r = http::make_response(status, body, content_type);
  return make_unit(r.to_bytes(), "http-resp");
}

// ---------- TcpLinePlugin ----------

TEST(TcpLinePlugin, FramesLines) {
  TcpLinePlugin plugin;
  auto framer = plugin.make_framer(Direction::kServerToClient);
  framer->feed("hello\nwor");
  auto units = framer->take();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].data, "hello\n");
  framer->feed("ld\n");
  units = framer->take();
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].data, "world\n");
  EXPECT_EQ(framer->unconsumed(), "");
}

TEST(TcpLinePlugin, ExactCompareWithoutFilterPair) {
  TcpLinePlugin plugin;
  CompareContext ctx;
  auto same = compare(plugin,
      {make_unit("abc\n", "line"), make_unit("abc\n", "line")}, ctx);
  EXPECT_TRUE(same.agreed);
  auto diff = compare(plugin,
      {make_unit("abc\n", "line"), make_unit("abd\n", "line")}, ctx);
  EXPECT_FALSE(diff.agreed);
}

TEST(TcpLinePlugin, FilterPairMasksNoise) {
  TcpLinePlugin plugin;
  CompareContext ctx;
  ctx.filter_pair = true;
  // Pair (0,1) differ in a token; instance 2 with its own token passes.
  auto ok = compare(plugin, {make_unit("id=aaaa ok\n", "line"),
                             make_unit("id=bbbb ok\n", "line"),
                             make_unit("id=cccc ok\n", "line")},
                            ctx);
  EXPECT_TRUE(ok.agreed);
  // Instance 2 differs outside the noise region: caught.
  auto bad = compare(plugin, {make_unit("id=aaaa ok\n", "line"),
                              make_unit("id=bbbb ok\n", "line"),
                              make_unit("id=cccc KO\n", "line")},
                             ctx);
  EXPECT_FALSE(bad.agreed);
}

// ---------- HttpPlugin ----------

TEST(HttpPlugin, IdenticalResponsesAgree) {
  HttpPlugin plugin;
  CompareContext ctx;
  KnownVariance kv;
  ctx.variance = &kv;
  auto a = http_response_unit(200, "<h1>hi</h1>");
  auto b = http_response_unit(200, "<h1>hi</h1>");
  EXPECT_TRUE(compare(plugin, {a, b}, ctx).agreed);
}

TEST(HttpPlugin, StatusMismatchDiverges) {
  HttpPlugin plugin;
  CompareContext ctx;
  auto a = http_response_unit(200, "x");
  auto b = http_response_unit(403, "x");
  EXPECT_FALSE(compare(plugin, {a, b}, ctx).agreed);
}

TEST(HttpPlugin, BodyMismatchDiverges) {
  HttpPlugin plugin;
  CompareContext ctx;
  auto a = http_response_unit(200, "public");
  auto b = http_response_unit(200, "public + SECRET");
  auto out = compare(plugin, {a, b}, ctx);
  EXPECT_FALSE(out.agreed);
  EXPECT_FALSE(out.reason.empty());
}

TEST(HttpPlugin, KnownVarianceHeadersIgnored) {
  HttpPlugin plugin;
  KnownVariance kv;  // default ignores Server and Date
  CompareContext ctx;
  ctx.variance = &kv;
  http::Response ra = http::make_response(200, "same");
  ra.headers.set("Server", "wsgx/1.13.2");
  http::Response rb = http::make_response(200, "same");
  rb.headers.set("Server", "wsgx/1.13.4");
  auto out = compare(plugin, {make_unit(ra.to_bytes(), "http-resp"),
                              make_unit(rb.to_bytes(), "http-resp")},
                             ctx);
  EXPECT_TRUE(out.agreed);
}

TEST(HttpPlugin, HeaderDifferenceNotIgnoredDiverges) {
  HttpPlugin plugin;
  KnownVariance kv;
  CompareContext ctx;
  ctx.variance = &kv;
  http::Response ra = http::make_response(200, "same");
  ra.headers.set("X-Custom", "a");
  http::Response rb = http::make_response(200, "same");
  rb.headers.set("X-Custom", "b");
  EXPECT_FALSE(compare(plugin, {make_unit(ra.to_bytes(), "http-resp"),
                                make_unit(rb.to_bytes(), "http-resp")},
                               ctx)
                   .agreed);
}

TEST(HttpPlugin, CompressedBodiesComparedDecoded) {
  HttpPlugin plugin;
  CompareContext ctx;
  Bytes body = "line one\nline two\nline one\nline two\n";
  http::Response ra;
  ra.status = 200;
  ra.headers.set("Content-Encoding", "xz77");
  ra.body = http::xz77_compress(body);
  ra.headers.set("Content-Length", std::to_string(ra.body.size()));
  http::Response rb = ra;
  auto out = compare(plugin, {make_unit(ra.to_bytes(), "http-resp"),
                              make_unit(rb.to_bytes(), "http-resp")},
                             ctx);
  EXPECT_TRUE(out.agreed);
  // Different decoded content diverges even when lengths coincide.
  http::Response rc;
  rc.status = 200;
  rc.headers.set("Content-Encoding", "xz77");
  rc.body = http::xz77_compress("line one\nline 2wo\nline one\nline two\n");
  rc.headers.set("Content-Length", std::to_string(rc.body.size()));
  EXPECT_FALSE(compare(plugin, {make_unit(ra.to_bytes(), "http-resp"),
                                make_unit(rc.to_bytes(), "http-resp")},
                               ctx)
                   .agreed);
}

TEST(HttpPlugin, JsonBodiesComparedStructurally) {
  HttpPlugin plugin;
  CompareContext ctx;
  auto a = http_response_unit(200, R"({"a":1,"b":2})", "application/json");
  auto b = http_response_unit(200, R"({"b":2,"a":1})", "application/json");
  EXPECT_TRUE(compare(plugin, {a, b}, ctx).agreed);
  auto c = http_response_unit(200, R"({"b":2,"a":9})", "application/json");
  EXPECT_FALSE(compare(plugin, {a, c}, ctx).agreed);
}

TEST(HttpPlugin, FilterPairAbsorbsCsrfNoise) {
  HttpPlugin plugin;
  CompareContext ctx;
  ctx.filter_pair = true;
  auto page = [](const std::string& tok) {
    return http_response_unit(
        200, "<form><input name=\"user_token\" value=\"" + tok +
                 "\"></form>");
  };
  auto out = compare(plugin, {page("aaaaaaaaaaaaaaaa"),
                              page("bbbbbbbbbbbbbbbb"),
                              page("cccccccccccccccc")},
                             ctx);
  EXPECT_TRUE(out.agreed) << out.reason;
}

TEST(HttpPlugin, CsrfTokensHarvestedOnForward) {
  HttpPlugin plugin;
  SessionState state;
  state.n_instances = 3;
  CompareContext ctx;
  ctx.filter_pair = true;
  ctx.session = &state;
  auto page = [](const std::string& tok) {
    return http_response_unit(
        200, "<input value=\"" + tok + "\">");
  };
  auto fwd = plugin.on_forward_downstream(
      {page("aaaaaaaaaaaaaaaa"), page("bbbbbbbbbbbbbbbb"),
       page("cccccccccccccccc")},
      ctx);
  // Instance 0's bytes are forwarded (canonical token = instance 0's).
  EXPECT_NE(fwd.find("aaaaaaaaaaaaaaaa"), Bytes::npos);
  ASSERT_EQ(state.tokens.size(), 1u);
  const auto& per = state.tokens.begin()->second;
  EXPECT_EQ(per[1], "bbbbbbbbbbbbbbbb");
  EXPECT_EQ(per[2], "cccccccccccccccc");
}

TEST(HttpPlugin, RewriteRestoresPerInstanceToken) {
  HttpPlugin plugin;
  SessionState state;
  state.n_instances = 3;
  state.tokens["aaaaaaaaaaaaaaaa"] = {"aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb",
                                      "cccccccccccccccc"};
  CompareContext ctx;
  ctx.session = &state;
  http::Request req;
  req.method = "POST";
  req.target = "/submit";
  req.body = "id=1&user_token=aaaaaaaaaaaaaaaa";
  Unit u{req.to_bytes(), "http-req"};
  Bytes for_1 = plugin.rewrite_for_instance(u, 1, ctx);
  EXPECT_NE(for_1.find("bbbbbbbbbbbbbbbb"), Bytes::npos);
  EXPECT_EQ(for_1.find("aaaaaaaaaaaaaaaa"), Bytes::npos);
  // Token still present until the LAST instance is rewritten.
  EXPECT_EQ(state.tokens.size(), 1u);
  Bytes for_0 = plugin.rewrite_for_instance(u, 0, ctx);
  EXPECT_NE(for_0.find("aaaaaaaaaaaaaaaa"), Bytes::npos);
  Bytes for_2 = plugin.rewrite_for_instance(u, 2, ctx);
  EXPECT_NE(for_2.find("cccccccccccccccc"), Bytes::npos);
  // Deleted after full fan-out (paper: tokens are ephemeral).
  EXPECT_TRUE(state.tokens.empty());
}

TEST(HttpPlugin, RewriteFixesContentLengthForUnequalTokens) {
  HttpPlugin plugin;
  SessionState state;
  state.n_instances = 2;
  state.tokens["aaaaaaaaaaaaaaaa"] = {"aaaaaaaaaaaaaaaa", "bbbbbbbbbbbb"};
  CompareContext ctx;
  ctx.session = &state;
  http::Request req;
  req.method = "POST";
  req.target = "/s";
  req.body = "user_token=aaaaaaaaaaaaaaaa";
  Unit u{req.to_bytes(), "http-req"};
  Bytes rewritten = plugin.rewrite_for_instance(u, 1, ctx);
  http::RequestParser parser;
  parser.feed(rewritten);
  auto msgs = parser.take();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].body, "user_token=bbbbbbbbbbbb");
  EXPECT_EQ(msgs[0].headers.get("Content-Length").value(),
            std::to_string(msgs[0].body.size()));
}

TEST(HttpPlugin, InterventionPageIsServed) {
  HttpPlugin plugin;
  Bytes page = plugin.intervention_response();
  EXPECT_NE(page.find("403"), Bytes::npos);
  EXPECT_NE(page.find("RDDR intervened"), Bytes::npos);
}

// ---------- PgPlugin ----------

TEST(PgPlugin, FramesTypedMessagesAndStartup) {
  PgPlugin plugin;
  auto c2s = plugin.make_framer(Direction::kClientToServer);
  c2s->feed(pg::build_startup({{"user", "u"}}));
  c2s->feed(pg::build_query("SELECT 1;"));
  auto units = c2s->take();
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].kind, "pg:startup");
  EXPECT_EQ(units[1].kind, "pg:Q");
}

TEST(PgPlugin, BackendKeyDataIgnored) {
  PgPlugin plugin;
  KnownVariance kv;
  CompareContext ctx;
  ctx.variance = &kv;
  auto key = [](uint32_t pid) {
    return Unit{pg::build_backend_key_data(pid, pid * 7), "pg:K"};
  };
  EXPECT_TRUE(compare(plugin, {key(100), key(200), key(300)}, ctx).agreed);
}

TEST(PgPlugin, ServerVersionParamIgnoredByDefault) {
  PgPlugin plugin;
  KnownVariance kv;
  CompareContext ctx;
  ctx.variance = &kv;
  auto param = [](const char* v) {
    return Unit{pg::build_parameter_status("server_version", v), "pg:S"};
  };
  EXPECT_TRUE(
      compare(plugin, {param("10.7"), param("10.7"), param("10.9")}, ctx)
          .agreed);
}

TEST(PgPlugin, OtherParamMismatchDiverges) {
  PgPlugin plugin;
  KnownVariance kv;
  CompareContext ctx;
  ctx.variance = &kv;
  auto param = [](const char* v) {
    return Unit{pg::build_parameter_status("server_encoding", v), "pg:S"};
  };
  EXPECT_FALSE(
      compare(plugin, {param("UTF8"), param("UTF8"), param("LATIN1")}, ctx)
          .agreed);
}

TEST(PgPlugin, DataRowMismatchDiverges) {
  PgPlugin plugin;
  CompareContext ctx;
  auto row = [](const char* v) {
    return Unit{pg::build_data_row({std::string(v)}), "pg:D"};
  };
  EXPECT_TRUE(compare(plugin, {row("alice"), row("alice")}, ctx).agreed);
  EXPECT_FALSE(compare(plugin, {row("alice"), row("mallory")}, ctx).agreed);
}

TEST(PgPlugin, NoticeCountMismatchIsKindMismatch) {
  // Vulnerable instance emits a NOTICE where the fixed one sends the row —
  // the k-th unit kinds differ and that alone is divergence.
  PgPlugin plugin;
  CompareContext ctx;
  Unit notice{pg::build_notice("leak 42, 1000"), "pg:N"};
  Unit row{pg::build_data_row({std::string("42")}), "pg:D"};
  auto out = compare(plugin, {notice, notice, row}, ctx);
  EXPECT_FALSE(out.agreed);
  EXPECT_NE(out.reason.find("kind mismatch"), std::string::npos);
}

TEST(PgPlugin, QueryMergeCompare) {
  // Outgoing-proxy direction: the DVWA high-security instance sends a
  // sanitised query while the filter pair sends the raw injection.
  PgPlugin plugin;
  CompareContext ctx;
  ctx.filter_pair = true;
  auto q = [](const std::string& sql) { return Unit{pg::build_query(sql), "pg:Q"}; };
  std::string inject =
      "SELECT * FROM users WHERE id = '' OR '1'='1' ORDER BY 1;";
  std::string sanitized =
      "SELECT * FROM users WHERE id = ''' OR ''1''=''1' ORDER BY 1;";
  EXPECT_TRUE(
      compare(plugin, {q(inject), q(inject), q(inject)}, ctx).agreed);
  EXPECT_FALSE(
      compare(plugin, {q(inject), q(inject), q(sanitized)}, ctx).agreed);
}

TEST(PgPlugin, InterventionIsErrorResponse) {
  PgPlugin plugin;
  Bytes b = plugin.intervention_response();
  ASSERT_FALSE(b.empty());
  EXPECT_EQ(b[0], 'E');
}

// ---------- JsonLinesPlugin ----------

TEST(JsonLinesPlugin, StructuralEquality) {
  JsonLinesPlugin plugin;
  CompareContext ctx;
  Unit a{"{\"x\": 1, \"y\": 2}\n", "line"};
  Unit b{"{\"y\":2,\"x\":1}\n", "line"};
  EXPECT_TRUE(compare(plugin, {a, b}, ctx).agreed);
  Unit c{"{\"y\":3,\"x\":1}\n", "line"};
  EXPECT_FALSE(compare(plugin, {a, c}, ctx).agreed);
}

TEST(JsonLinesPlugin, MalformedComparedAsBytes) {
  JsonLinesPlugin plugin;
  CompareContext ctx;
  Unit a{"not json\n", "line"};
  Unit b{"not json\n", "line"};
  EXPECT_TRUE(compare(plugin, {a, b}, ctx).agreed);
  Unit c{"not jsoN\n", "line"};
  EXPECT_FALSE(compare(plugin, {a, c}, ctx).agreed);
}

}  // namespace
}  // namespace rddr::core
