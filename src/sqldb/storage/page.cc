#include "sqldb/storage/page.h"

#include "common/strutil.h"
#include "sqldb/codec.h"

namespace rddr::sqldb::storage {

namespace {

// The checksum covers a canonical rendering of the header fields plus
// the row body, so neither half can be torn without detection.
uint64_t page_checksum(std::string_view table, uint64_t page_no, uint64_t lsn,
                       size_t nrows, std::string_view body) {
  std::string head = strformat("%.*s\t%llu\t%llu\t%zu\n",
                               static_cast<int>(table.size()), table.data(),
                               static_cast<unsigned long long>(page_no),
                               static_cast<unsigned long long>(lsn), nrows);
  return fnv1a64(head) ^ fnv1a64(body);
}

}  // namespace

Bytes encode_page(const TableData& table, uint64_t page_no, uint64_t page_lsn,
                  size_t first, size_t n) {
  std::string body;
  size_t end = first + n;
  if (end > table.rows.size()) end = table.rows.size();
  size_t nrows = end > first ? end - first : 0;
  for (size_t i = first; i < end; ++i) {
    body += encode_row(table.rows[i]);
    body += '\n';
  }
  std::string esc = escape_field(table.name);
  uint64_t sum = page_checksum(esc, page_no, page_lsn, nrows, body);
  Bytes out = strformat("RDDRPAGE 1\t%s\t%llu\t%llu\t%zu\t%016llx\n",
                        esc.c_str(),
                        static_cast<unsigned long long>(page_no),
                        static_cast<unsigned long long>(page_lsn), nrows,
                        static_cast<unsigned long long>(sum));
  out += body;
  return out;
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
  if (!want ||
      page_checksum(fields[1], static_cast<uint64_t>(*page_no),
                    static_cast<uint64_t>(*lsn),
                    static_cast<size_t>(*nrows), body) != *want)
    return std::nullopt;

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
