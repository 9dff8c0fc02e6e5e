// SQL datum: a dynamically-typed value with Postgres-flavoured semantics
// (NULL propagation, text casts, t/f booleans).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <variant>

namespace rddr::sqldb {

enum class Type { kNull, kBool, kInt, kFloat, kText };

/// Name Postgres uses for a type ("integer", "text", ...).
std::string type_name(Type t);

/// Parses a type name from SQL (int/integer/int4, bool/boolean,
/// float/double/real/numeric, text/varchar/char). Returns nullopt otherwise.
std::optional<Type> parse_type_name(std::string_view s);

/// A single SQL value. NULL is the monostate alternative.
class Datum {
 public:
  Datum() = default;  // NULL
  static Datum null() { return Datum(); }
  static Datum boolean(bool b) { return Datum(b); }
  static Datum integer(int64_t i) { return Datum(i); }
  static Datum floating(double d) { return Datum(d); }
  static Datum text(std::string s) { return Datum(std::move(s)); }

  /// The alternatives of `v_` are declared in Type's order (checked below).
  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return std::holds_alternative<std::monostate>(v_); }

  bool as_bool() const { return std::get<bool>(v_); }
  int64_t as_int() const { return std::get<int64_t>(v_); }
  double as_float() const { return std::get<double>(v_); }
  const std::string& as_text() const { return std::get<std::string>(v_); }

  /// Numeric view (int widened to double); only for kInt/kFloat/kBool.
  double numeric() const;

  /// Postgres text output: integers plain, floats shortest, bools "t"/"f".
  /// NULL renders as an empty string (callers emit wire NULL separately).
  std::string to_text() const;

  /// Three-valued SQL comparison: nullopt when either side is NULL.
  /// Numeric types compare numerically (integers as doubles); text
  /// compares bytewise. Cross-type text/number comparisons attempt numeric
  /// coercion of the text side (Postgres would error; our subset coerces,
  /// which is enough for the workloads and keeps both engines consistent).
  /// The int/int case, the one every keyed predicate takes, is inline.
  std::optional<int> compare(const Datum& other) const {
    if (type() == Type::kInt && other.type() == Type::kInt) {
      double x = static_cast<double>(as_int());
      double y = static_cast<double>(other.as_int());
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    return compare_other(other);
  }

  /// Equality for hashing/grouping: NULLs group together (SQL GROUP BY).
  bool group_equal(const Datum& other) const;
  size_t hash() const;

  bool operator==(const Datum& other) const { return v_ == other.v_; }

 private:
  using Value = std::variant<std::monostate, bool, int64_t, double, std::string>;
  template <Type T, typename Alt>
  static constexpr bool kAltIs =
      std::is_same_v<std::variant_alternative_t<static_cast<size_t>(T), Value>,
                     Alt>;
  // type() casts the variant index to Type.
  static_assert(kAltIs<Type::kNull, std::monostate> &&
                kAltIs<Type::kBool, bool> && kAltIs<Type::kInt, int64_t> &&
                kAltIs<Type::kFloat, double> &&
                kAltIs<Type::kText, std::string> &&
                std::variant_size_v<Value> == 5);

  explicit Datum(Value v) : v_(std::move(v)) {}
  /// compare() for every pair but int/int.
  std::optional<int> compare_other(const Datum& other) const;

  Value v_;
};

}  // namespace rddr::sqldb
