#include "sqldb/storage/page.h"

#include <algorithm>
#include <charconv>

#include "common/strutil.h"
#include "sqldb/codec.h"

namespace rddr::sqldb::storage {

namespace {

void append_u64(std::string& out, uint64_t v) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

// Appends the numeric header fields, \t<page_no>\t<page_lsn>\t<nrows>,
// that follow the escaped table name.
void append_numbers(std::string& out, uint64_t page_no, uint64_t lsn,
                    size_t nrows) {
  out += '\t';
  append_u64(out, page_no);
  out += '\t';
  append_u64(out, lsn);
  out += '\t';
  append_u64(out, nrows);
}

// The checksum covers the header fields (ended by a newline) plus the
// row body, so neither half can be torn without detection.
uint64_t page_checksum(std::string_view fields, std::string_view body) {
  return fnv1a64("\n", fnv1a64(fields)) ^ fnv1a64(body);
}

constexpr std::string_view kMagic = "RDDRPAGE 1\t";

}  // namespace

Bytes encode_page(const TableData& table, uint64_t page_no, uint64_t page_lsn,
                  size_t first, size_t n) {
  size_t end = std::min(first + n, table.rows.size());
  size_t nrows = end > first ? end - first : 0;
  // The image renders into one buffer reused across calls: the header
  // with a placeholder checksum, then the rows; the checksum is filled in
  // once the body is known. The result is one exact-size copy, because
  // images stay resident on the block device.
  thread_local std::string buf;
  buf.assign(kMagic);
  append_escaped(buf, table.name);
  append_numbers(buf, page_no, page_lsn, nrows);
  const size_t fields_end = buf.size();
  buf.append("\t0000000000000000\n");
  const size_t body_begin = buf.size();
  for (size_t i = first; i < end; ++i) {
    append_row(buf, table.rows[i]);
    buf += '\n';
  }
  std::string_view bytes = buf;
  uint64_t sum = page_checksum(
      bytes.substr(kMagic.size(), fields_end - kMagic.size()),
      bytes.substr(body_begin));
  for (size_t d = fields_end + 16; d > fields_end; --d, sum >>= 4)
    buf[d] = "0123456789abcdef"[sum & 15];
  return Bytes(buf);
}

std::optional<PageImage> decode_page(ByteView bytes) {
  size_t nl = bytes.find('\n');
  if (nl == ByteView::npos) return std::nullopt;
  std::string_view head = bytes.substr(0, nl);
  std::string_view body = bytes.substr(nl + 1);
  auto fields = split(head, '\t');
  if (fields.size() != 6 || fields[0] != "RDDRPAGE 1") return std::nullopt;
  auto page_no = parse_i64(fields[2]);
  auto lsn = parse_i64(fields[3]);
  auto nrows = parse_i64(fields[4]);
  if (!page_no || !lsn || !nrows || *page_no < 0 || *lsn < 0 || *nrows < 0)
    return std::nullopt;
  auto want = parse_hex64(fields[5]);
  if (!want) return std::nullopt;
  // The checksum covers the canonical rendering of the parsed fields.
  std::string canonical(fields[1]);
  append_numbers(canonical, static_cast<uint64_t>(*page_no),
                 static_cast<uint64_t>(*lsn), static_cast<size_t>(*nrows));
  if (page_checksum(canonical, body) != *want) return std::nullopt;

  PageImage img;
  img.table = unescape_field(fields[1]);
  img.page_no = static_cast<uint64_t>(*page_no);
  img.page_lsn = static_cast<uint64_t>(*lsn);
  img.rows.reserve(static_cast<size_t>(*nrows));
  size_t pos = 0;
  for (int64_t i = 0; i < *nrows; ++i) {
    size_t eol = body.find('\n', pos);
    if (eol == std::string_view::npos) return std::nullopt;
    std::string_view line = body.substr(pos, eol - pos);
    pos = eol + 1;
    Row row;
    if (!decode_row(line, &row)) return std::nullopt;
    img.rows.push_back(std::move(row));
  }
  if (pos != body.size()) return std::nullopt;  // trailing garbage
  return img;
}

}  // namespace rddr::sqldb::storage
