// Unit tests for pgwire framing/messages and the JSON module.
#include <gtest/gtest.h>

#include "proto/json/json.h"
#include "proto/pgwire/pgwire.h"

namespace rddr {
namespace {

using namespace rddr::pg;

/// Every message `r` framed and has not handed out yet (views valid until
/// its next feed).
std::vector<Message> take_all(MessageReader& r) {
  std::vector<Message> out;
  r.take([&out](const Message& m) {
    out.push_back(m);
    return true;
  });
  return out;
}

TEST(PgWire, StartupRoundTrip) {
  Bytes wire = build_startup({{"user", "alice"}, {"database", "app"}});
  MessageReader r(/*expect_startup=*/true);
  r.feed(wire);
  auto msgs = take_all(r);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].type, 0);
  auto params = parse_startup(msgs[0].payload);
  ASSERT_TRUE(params.has_value());
  EXPECT_EQ((*params)["user"], "alice");
  EXPECT_EQ((*params)["database"], "app");
}

TEST(PgWire, QueryRoundTrip) {
  MessageReader r(false);
  r.feed(build_query("SELECT 1;"));
  auto msgs = take_all(r);
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].type, 'Q');
  EXPECT_EQ(parse_query(msgs[0].payload).value(), "SELECT 1;");
}

TEST(PgWire, IncrementalFraming) {
  Bytes wire = build_query("SELECT a FROM t;") + build_terminate();
  MessageReader r(false);
  size_t total = 0;
  for (char c : wire) {
    r.feed(ByteView(&c, 1));
    total += take_all(r).size();
  }
  EXPECT_EQ(total, 2u);
}

TEST(PgWire, DataRowRoundTripWithNull) {
  std::vector<std::optional<std::string>> cols{"x", std::nullopt, ""};
  Bytes wire = build_data_row(cols);
  MessageReader r(false);
  r.feed(wire);
  auto msgs = take_all(r);
  ASSERT_EQ(msgs.size(), 1u);
  ASSERT_EQ(msgs[0].type, 'D');
  auto decoded = parse_data_row(msgs[0].payload);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cols);
}

TEST(PgWire, RowDescriptionRoundTrip) {
  Bytes wire = build_row_description({"id", "name", "score"});
  MessageReader r(false);
  r.feed(wire);
  auto msgs = take_all(r);
  auto names = parse_row_description(msgs[0].payload);
  ASSERT_TRUE(names.has_value());
  EXPECT_EQ(*names, (std::vector<std::string>{"id", "name", "score"}));
}

TEST(PgWire, ErrorAndNoticeFields) {
  MessageReader r(false);
  r.feed(build_error("42501", "permission denied"));
  r.feed(build_notice("leak 1 2"));
  auto msgs = take_all(r);
  ASSERT_EQ(msgs.size(), 2u);
  auto ef = parse_error_fields(msgs[0].payload);
  ASSERT_TRUE(ef.has_value());
  EXPECT_EQ(ef->severity, "ERROR");
  EXPECT_EQ(ef->sqlstate, "42501");
  EXPECT_EQ(ef->message, "permission denied");
  auto nf = parse_error_fields(msgs[1].payload);
  EXPECT_EQ(nf->severity, "NOTICE");
  EXPECT_EQ(nf->message, "leak 1 2");
}

TEST(PgWire, RejectsBadLength) {
  MessageReader r(false);
  Bytes bad = "Q";
  bad += Bytes("\x00\x00\x00\x01", 4);  // length < 4
  r.feed(bad);
  EXPECT_TRUE(r.failed());
}

TEST(PgWire, RejectsBadStartupLength) {
  MessageReader r(true);
  Bytes bad("\x00\x00\x00\x02", 4);
  r.feed(bad);
  EXPECT_TRUE(r.failed());
}

TEST(PgWire, BinaryPayloadSurvivesFraming) {
  Bytes payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  Bytes wire = build_data_row({payload});
  MessageReader r(false);
  r.feed(wire);
  auto msgs = take_all(r);
  auto cols = parse_data_row(msgs[0].payload);
  EXPECT_EQ((*cols)[0].value(), payload);
}

// ---- JSON ----

using json::Value;

TEST(Json, ParseScalars) {
  EXPECT_TRUE(json::parse("null")->is_null());
  EXPECT_EQ(json::parse("true")->as_bool(), true);
  EXPECT_DOUBLE_EQ(json::parse("-12.5")->as_number(), -12.5);
  EXPECT_EQ(json::parse("\"hi\\n\"")->as_string(), "hi\n");
}

TEST(Json, ParseNested) {
  auto v = json::parse(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(v.has_value());
  const auto* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array().size(), 3u);
  EXPECT_EQ(a->as_array()[2].find("b")->as_string(), "c");
}

TEST(Json, DumpIsCanonical) {
  // Key order in the input must not affect output (std::map sorts).
  auto v1 = json::parse(R"({"b":1,"a":2})");
  auto v2 = json::parse(R"({"a":2,"b":1})");
  EXPECT_EQ(v1->dump(), v2->dump());
  EXPECT_EQ(v1->dump(), R"({"a":2,"b":1})");
}

TEST(Json, RoundTrip) {
  const char* doc = R"({"arr":[1,2.5,"s",true,null],"obj":{"k":"v"}})";
  auto v = json::parse(doc);
  ASSERT_TRUE(v.has_value());
  auto v2 = json::parse(v->dump());
  ASSERT_TRUE(v2.has_value());
  EXPECT_EQ(*v, *v2);
}

TEST(Json, EscapesControlCharacters) {
  Value v(std::string("a\x01b\"c"));
  auto reparsed = json::parse(v.dump());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->as_string(), "a\x01b\"c");
}

TEST(Json, UnicodeEscapes) {
  auto v = json::parse(R"("Aé")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "A\xc3\xa9");
}

TEST(Json, RejectsMalformed) {
  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("[1,]").has_value());
  EXPECT_FALSE(json::parse("\"unterminated").has_value());
  EXPECT_FALSE(json::parse("1 2").has_value());   // trailing garbage
  EXPECT_FALSE(json::parse("{'single':1}").has_value());
  EXPECT_FALSE(json::parse("nul").has_value());
}

TEST(Json, DepthLimit) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(json::parse(deep, 64).has_value());
  EXPECT_TRUE(json::parse("[[[[1]]]]", 64).has_value());
}

TEST(Json, IntegersRenderWithoutDecimal) {
  Value v(42);
  EXPECT_EQ(v.dump(), "42");
  Value arr(json::Array{Value(1), Value(2.5)});
  EXPECT_EQ(arr.dump(), "[1,2.5]");
}

// ---- bounded-read hardening (fuzzer-found classes) ----

TEST(PgWireHardening, NonPrintableTypeByteFailsDistinctly) {
  // A garbage type byte used to be accepted verbatim, and its
  // attacker-controlled declared length silently buffered up to the 64MB
  // cap. It must now fail immediately with its own error.
  MessageReader r(false);
  Bytes wire;
  wire.push_back('\x01');  // not a printable-ASCII pgwire type
  put_u32_be(wire, 32 * 1024 * 1024);
  r.feed(wire);
  EXPECT_TRUE(r.failed());
  EXPECT_NE(r.error().find("invalid message type byte"), std::string::npos);
  EXPECT_EQ(take_all(r).size(), 0u);
}

TEST(PgWireHardening, TypeByteCheckedBeforeLengthArrives) {
  // The type byte is validated as soon as it lands — before the 4 length
  // bytes exist — so a trickled garbage frame can't park in the buffer.
  MessageReader r(false);
  r.feed(ByteView("\x80", 1));
  EXPECT_TRUE(r.failed());
}

TEST(PgWireHardening, PrintableTypesStillFrame) {
  MessageReader r(false);
  r.feed(build_query("SELECT 1;") + build_terminate());
  auto msgs = take_all(r);
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_FALSE(r.failed());
}

TEST(PgWireHardening, StartupWithoutTerminatorRejected) {
  // A parameter list that merely runs out of bytes (no trailing NUL) is a
  // truncated packet; it used to parse as a complete parameter map.
  Bytes wire = build_startup({{"user", "alice"}});
  MessageReader r(true);
  r.feed(wire);
  auto msgs = take_all(r);
  ASSERT_EQ(msgs.size(), 1u);
  Bytes truncated(msgs[0].payload);
  truncated.pop_back();  // drop the list terminator
  EXPECT_FALSE(parse_startup(truncated).has_value());
  EXPECT_TRUE(parse_startup(msgs[0].payload).has_value());
}

TEST(PgWireHardening, BadLengthStillDistinctFromBadType) {
  MessageReader r(false);
  Bytes wire;
  wire.push_back('Q');
  put_u32_be(wire, 3);  // < 4: impossible self-inclusive length
  r.feed(wire);
  EXPECT_TRUE(r.failed());
  EXPECT_NE(r.error().find("bad message length"), std::string::npos);
}

}  // namespace
}  // namespace rddr
