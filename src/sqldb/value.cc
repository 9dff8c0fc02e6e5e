#include "sqldb/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "common/strutil.h"

namespace rddr::sqldb {

std::string type_name(Type t) {
  switch (t) {
    case Type::kNull: return "unknown";
    case Type::kBool: return "boolean";
    case Type::kInt: return "integer";
    case Type::kFloat: return "double precision";
    case Type::kText: return "text";
  }
  return "?";
}

std::optional<Type> parse_type_name(std::string_view s) {
  std::string l = to_lower(trim(s));
  if (l == "int" || l == "integer" || l == "int4" || l == "int8" ||
      l == "bigint" || l == "smallint" || l == "serial")
    return Type::kInt;
  if (l == "bool" || l == "boolean") return Type::kBool;
  if (l == "float" || l == "double" || l == "double precision" ||
      l == "real" || l == "numeric" || l == "decimal" || l == "float8")
    return Type::kFloat;
  if (l == "text" || l == "varchar" || l == "char" || l == "date" ||
      starts_with(l, "varchar(") || starts_with(l, "char(") ||
      starts_with(l, "numeric("))
    return l.find("numeric") == 0 ? Type::kFloat : Type::kText;
  return std::nullopt;
}

Datum Datum::text(std::string_view s) {
  Datum d(Type::kText);
  if (s.size() > kInlineText) {
    d.copy_to_heap(s);
  } else {
    if (!s.empty()) std::memcpy(d.buf_, s.data(), s.size());
    d.len_ = static_cast<uint8_t>(s.size());
  }
  return d;
}

void Datum::copy_to_heap(std::string_view s) {
  char* heap = new char[s.size()];
  std::memcpy(heap, s.data(), s.size());
  store({heap, s.size()});
  len_ = kHeap;
}

void Datum::copy_from(const Datum& other) {
  if (other.len_ == kView) {
    *this = text(other.as_text());
    return;
  }
  std::memcpy(static_cast<void*>(this), &other, sizeof *this);
  if (other.on_heap()) copy_to_heap(other.as_text());
}

Datum& Datum::operator=(const Datum& other) {
  if (this != &other) *this = Datum(other);
  return *this;
}

bool Datum::operator==(const Datum& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case Type::kNull: return true;
    case Type::kBool: return as_bool() == other.as_bool();
    case Type::kInt: return as_int() == other.as_int();
    case Type::kFloat: return as_float() == other.as_float();
    case Type::kText: return as_text() == other.as_text();
  }
  return false;
}

double Datum::numeric() const {
  switch (type()) {
    case Type::kBool: return as_bool() ? 1.0 : 0.0;
    case Type::kInt: return static_cast<double>(as_int());
    case Type::kFloat: return as_float();
    default: return 0.0;
  }
}

std::string Datum::to_text() const {
  std::string out;
  append_text(out);
  return out;
}

void Datum::append_text(std::string& out) const {
  switch (type()) {
    case Type::kNull: return;
    case Type::kBool: out.push_back(as_bool() ? 't' : 'f'); return;
    case Type::kInt: {
      char buf[24];
      auto end = std::to_chars(buf, buf + sizeof buf, as_int()).ptr;
      out.append(buf, end);
      return;
    }
    case Type::kFloat: {
      double d = as_float();
      char buf[40];
      int n;
      if (d == std::floor(d) && std::fabs(d) < 1e15)
        n = std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
      else
        n = std::snprintf(buf, sizeof(buf), "%.12g", d);
      out.append(buf, static_cast<size_t>(n));
      return;
    }
    case Type::kText: out.append(as_text()); return;
  }
}

std::optional<int> Datum::compare_other(const Datum& other) const {
  if (is_null() || other.is_null()) return std::nullopt;
  Type a = type(), b = other.type();
  auto num_cmp = [](double x, double y) { return x < y ? -1 : (x > y ? 1 : 0); };
  if (a == Type::kText && b == Type::kText) {
    int c = as_text().compare(other.as_text());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a == Type::kText || b == Type::kText) {
    // Coerce the text side numerically when possible; else bytewise on the
    // rendered forms.
    const Datum& txt = (a == Type::kText) ? *this : other;
    auto parsed = parse_f64(txt.as_text());
    if (parsed) {
      double x = (a == Type::kText) ? *parsed : numeric();
      double y = (b == Type::kText) ? *parsed : other.numeric();
      return num_cmp(x, y);
    }
    std::string sa = to_text(), sb = other.to_text();
    int c = sa.compare(sb);
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  return num_cmp(numeric(), other.numeric());
}

bool Datum::group_equal(const Datum& other) const {
  if (is_null() && other.is_null()) return true;
  if (is_null() || other.is_null()) return false;
  auto c = compare(other);
  return c && *c == 0;
}

size_t Datum::hash() const {
  switch (type()) {
    case Type::kNull: return 0x9e3779b9;
    case Type::kBool: return as_bool() ? 1 : 2;
    case Type::kInt: return std::hash<int64_t>()(as_int());
    case Type::kFloat: {
      double d = as_float();
      // Hash integral floats like ints so 1 and 1.0 group together.
      if (d == std::floor(d) && std::fabs(d) < 1e15)
        return std::hash<int64_t>()(static_cast<int64_t>(d));
      return std::hash<double>()(d);
    }
    case Type::kText: return std::hash<std::string_view>()(as_text());
  }
  return 0;
}

}  // namespace rddr::sqldb
