// Shared text codec for sqldb state serialization.
//
// One escaping scheme, one datum and row encoding, and one checksum
// framing, used by every durable text form in the repo: full snapshots
// (snapshot.cc), storage-engine pages, root manifests and WAL blocks
// (storage/), and incremental resync deltas. Keeping them in one place is
// what makes "page bytes hash equal across replicas" and
// "snapshot(restore(x)) is a fixed point" the same property.
//
// Formats:
//  - Field escaping: \\ \t \n \r — the formats are line- and
//    tab-delimited, so exactly those characters are encoded.
//  - Datum: N | B:t | B:f | I:<int> | F:<hexfloat> | T:<escaped>.
//    Hexfloat keeps doubles (including ±inf and NaN payload-free nan)
//    bit-exact through the text round trip.
//  - Row: its datums, tab-separated (the snapshot "R", page and delta
//    row payload).
//  - Checksum: FNV-1a 64 as 16 lowercase hex digits, always the last
//    tab-separated field of the line it closes. Two sealed layouts:
//      line   <fields>\t<sum>              sum = FNV(fields)
//             (WAL header and WAL records)
//      block  <head>\t<sum>\n<body>        sum = FNV(head) ^ FNV(body)
//             (root manifest and resync delta)
//    Page images (storage/page.h) checksum a rendering of their header
//    fields instead, so they keep their own framing.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sqldb/value.h"

namespace rddr::sqldb {

// The writers append to `out`, so a whole page, snapshot or delta is
// rendered into one buffer without a string per field.

/// Appends `s` with the four delimiter bytes escaped.
void append_escaped(std::string& out, std::string_view s);
/// append_escaped into a fresh string (catalog and WAL fields).
std::string escape_field(std::string_view s);
std::string unescape_field(std::string_view s);

/// Appends one datum in the Datum format above.
void append_datum(std::string& out, const Datum& d);
/// Returns false (out untouched) on malformed input.
bool decode_datum(std::string_view s, Datum* out);

/// Appends a whole row tab-delimited (the snapshot, page and delta row
/// payload).
void append_row(std::string& out, const std::vector<Datum>& row);
/// Inverse of append_row; an empty line is a zero-column row. Returns
/// false (out unspecified) on a malformed datum.
bool decode_row(std::string_view line, std::vector<Datum>* out);

/// Fixed-width lowercase hex rendering of a checksum, and its inverse.
std::string hex64(uint64_t v);
std::optional<uint64_t> parse_hex64(std::string_view s);

/// Appends the checksum field to a line of tab-separated fields.
std::string seal_line(std::string line);
/// The fields of a sealed line without the checksum; nullopt when the
/// checksum is missing or does not match.
std::optional<std::vector<std::string>> open_line(std::string_view bytes);

/// Frames `head` and `body` as a sealed block.
std::string seal_block(std::string_view head, std::string_view body);
struct OpenedBlock {
  std::vector<std::string> head;  ///< header fields, checksum excluded
  std::string_view body;          ///< points into the opened bytes
};
/// nullopt when the header line is missing or the checksum does not match.
std::optional<OpenedBlock> open_block(std::string_view bytes);

}  // namespace rddr::sqldb
