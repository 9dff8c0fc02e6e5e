#include "sqldb/codec.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common/strutil.h"

namespace rddr::sqldb {

void append_escaped(std::string& out, std::string_view s) {
  size_t run = 0;  // start of the bytes not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    char code;
    switch (s[i]) {
      case '\\': code = '\\'; break;
      case '\t': code = 't'; break;
      case '\n': code = 'n'; break;
      case '\r': code = 'r'; break;
      default: continue;
    }
    out.append(s.data() + run, i - run);
    out += '\\';
    out += code;
    run = i + 1;
  }
  out.append(s.data() + run, s.size() - run);
}

std::string escape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped(out, s);
  return out;
}

std::string unescape_field(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += s[i];
    }
  }
  return out;
}

void append_datum(std::string& out, const Datum& d) {
  switch (d.type()) {
    case Type::kNull: out += 'N'; return;
    case Type::kBool: out += d.as_bool() ? "B:t" : "B:f"; return;
    case Type::kInt: {
      char buf[24];
      auto res = std::to_chars(buf, buf + sizeof buf, d.as_int());
      out += "I:";
      out.append(buf, res.ptr);
      return;
    }
    case Type::kFloat: {
      // Hexfloat is what keeps doubles bit-exact; to_chars would not
      // match printf's %a spelling byte for byte.
      char buf[64];
      int n = std::snprintf(buf, sizeof buf, "%a", d.as_float());
      out += "F:";
      out.append(buf, static_cast<size_t>(n));
      return;
    }
    case Type::kText:
      out += "T:";
      append_escaped(out, d.as_text());
      return;
  }
  out += 'N';
}

bool decode_datum(std::string_view s, Datum* out) {
  if (s == "N") {
    *out = Datum::null();
    return true;
  }
  if (s.size() < 2 || s[1] != ':') return false;
  std::string_view body = s.substr(2);
  switch (s[0]) {
    case 'B':
      if (body != "t" && body != "f") return false;
      *out = Datum::boolean(body == "t");
      return true;
    case 'I': {
      auto n = parse_i64(body);
      if (!n) return false;
      *out = Datum::integer(*n);
      return true;
    }
    case 'F': {
      std::string text(body);
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0') return false;
      *out = Datum::floating(v);
      return true;
    }
    case 'T':
      *out = Datum::text(unescape_field(body));
      return true;
  }
  return false;
}

void append_row(std::string& out, const std::vector<Datum>& row) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (i) out += '\t';
    append_datum(out, row[i]);
  }
}

bool decode_row(std::string_view line, std::vector<Datum>* out) {
  out->clear();
  if (line.empty()) return true;
  auto cells = split(line, '\t');
  out->reserve(cells.size());
  for (const auto& cell : cells) {
    Datum d;
    if (!decode_datum(cell, &d)) return false;
    out->push_back(std::move(d));
  }
  return true;
}

namespace {

// Splits "<fields>\t<sum>" into the fields and the parsed checksum.
bool split_checksum(std::string_view line, std::string_view* fields,
                    uint64_t* sum) {
  size_t last_tab = line.rfind('\t');
  if (last_tab == std::string_view::npos) return false;
  auto parsed = parse_hex64(line.substr(last_tab + 1));
  if (!parsed) return false;
  *fields = line.substr(0, last_tab);
  *sum = *parsed;
  return true;
}

}  // namespace

std::string hex64(uint64_t v) {
  return strformat("%016llx", static_cast<unsigned long long>(v));
}

std::optional<uint64_t> parse_hex64(std::string_view s) {
  if (s.size() != 16) return std::nullopt;
  uint64_t out = 0;
  for (char c : s) {
    int v = 0;
    if (c >= '0' && c <= '9') v = c - '0';
    else if (c >= 'a' && c <= 'f') v = 10 + (c - 'a');
    else return std::nullopt;
    out = (out << 4) | static_cast<uint64_t>(v);
  }
  return out;
}

std::string seal_line(std::string line) {
  uint64_t sum = fnv1a64(line);
  line.reserve(line.size() + 17);
  line += '\t';
  line += hex64(sum);
  return line;
}

std::optional<std::vector<std::string>> open_line(std::string_view bytes) {
  std::string_view fields;
  uint64_t sum = 0;
  if (!split_checksum(bytes, &fields, &sum) || fnv1a64(fields) != sum)
    return std::nullopt;
  return split(fields, '\t');
}

std::string seal_block(std::string_view head, std::string_view body) {
  std::string out;
  out.reserve(head.size() + 18 + body.size());
  out += head;
  out += '\t';
  out += hex64(fnv1a64(head) ^ fnv1a64(body));
  out += '\n';
  out += body;
  return out;
}

std::optional<OpenedBlock> open_block(std::string_view bytes) {
  size_t nl = bytes.find('\n');
  if (nl == std::string_view::npos) return std::nullopt;
  std::string_view head, body = bytes.substr(nl + 1);
  uint64_t sum = 0;
  if (!split_checksum(bytes.substr(0, nl), &head, &sum) ||
      (fnv1a64(head) ^ fnv1a64(body)) != sum)
    return std::nullopt;
  return OpenedBlock{split(head, '\t'), body};
}

}  // namespace rddr::sqldb
