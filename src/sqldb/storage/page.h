// Slotted heap page codec for the sqldb storage engine.
//
// A page holds a fixed-capacity run of a table's rows (`rows_per_page`
// from StorageOptions): logical page k covers row ordinals
// [k*rpp, (k+1)*rpp). Pages are text (the repo's durable forms are all
// line-oriented — see sqldb/codec.h) with a checksummed header:
//
//   RDDRPAGE 1\t<table>\t<page_no>\t<page_lsn>\t<nrows>\t<checksum>\n
//   <encoded row>\n           (nrows lines, sqldb::append_row)
//
// The checksum (FNV-1a 64) covers the header fields and the row body, so
// a torn device write — a prefix of the new image spliced over the old —
// is detected no matter where the tear lands. It hashes a rendering of
// the fields rather than the header line, so pages keep this framing
// instead of sqldb/codec.h's sealed layouts. `page_lsn` is the LSN of
// the last statement that touched any row in the page; it is what makes
// page-level incremental resync sound: replicas fed the same statement
// prefix have byte-identical pages at equal page_lsn.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "sqldb/engine.h"

namespace rddr::sqldb::storage {

struct PageImage {
  std::string table;
  uint64_t page_no = 0;
  uint64_t page_lsn = 0;
  std::vector<Row> rows;
};

/// Encodes rows [first, first+n) of `table` as a page image.
Bytes encode_page(const TableData& table, uint64_t page_no, uint64_t page_lsn,
                  size_t first, size_t n);

/// Decodes and verifies a page image. nullopt on framing or checksum
/// failure (torn write, bit rot) — callers treat the page as lost.
std::optional<PageImage> decode_page(ByteView bytes);

}  // namespace rddr::sqldb::storage
