// SQL datum: a dynamically-typed value with Postgres-flavoured semantics
// (NULL propagation, text casts, t/f booleans).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace rddr::sqldb {

enum class Type { kNull, kBool, kInt, kFloat, kText };

/// Name Postgres uses for a type ("integer", "text", ...).
std::string type_name(Type t);

/// Parses a type name from SQL (int/integer/int4, bool/boolean,
/// float/double/real/numeric, text/varchar/char). Returns nullopt otherwise.
std::optional<Type> parse_type_name(std::string_view s);

/// A single SQL value: a 24-byte tagged union. Text of up to kInlineText
/// bytes lives inside the datum; longer text owns one exactly-sized heap
/// block, or views bytes it does not own (view()). Tables hold one Datum
/// per cell, so the size is the per-cell cost of every replica's dataset.
class Datum {
 public:
  static constexpr size_t kInlineText = 22;

  Datum() = default;  // NULL
  static Datum null() { return Datum(); }
  static Datum boolean(bool b) {
    Datum d(Type::kBool);
    d.buf_[0] = b;
    return d;
  }
  static Datum integer(int64_t i) {
    Datum d(Type::kInt);
    std::memcpy(d.buf_, &i, sizeof i);
    return d;
  }
  static Datum floating(double f) {
    Datum d(Type::kFloat);
    std::memcpy(d.buf_, &f, sizeof f);
    return d;
  }
  static Datum text(std::string_view s);
  /// Text that views `s`, which must outlive it and what it is moved to:
  /// a parsed literal, whose bytes the statement's text holds. A copy of
  /// it owns its bytes.
  static Datum view(std::string_view s) {
    Datum d(Type::kText);
    d.store(s);
    d.len_ = kView;
    return d;
  }

  Datum(const Datum& other) { copy_from(other); }
  Datum(Datum&& other) noexcept { take_from(other); }
  Datum& operator=(const Datum& other);
  Datum& operator=(Datum&& other) noexcept {
    if (this != &other) {
      release();
      take_from(other);
    }
    return *this;
  }
  ~Datum() { release(); }

  Type type() const { return static_cast<Type>(tag_); }
  bool is_null() const { return type() == Type::kNull; }

  // Each accessor requires its type (asserted in debug builds).
  bool as_bool() const {
    assert(type() == Type::kBool);
    return buf_[0] != 0;
  }
  int64_t as_int() const {
    assert(type() == Type::kInt);
    return load<int64_t>(0);
  }
  double as_float() const {
    assert(type() == Type::kFloat);
    return load<double>(0);
  }
  /// Valid while the datum lives and is not assigned to.
  std::string_view as_text() const {
    assert(type() == Type::kText);
    if (len_ <= kInlineText) return {buf_, len_};
    return {load<const char*>(0), load<size_t>(8)};
  }

  /// Numeric view (int widened to double); only for kInt/kFloat/kBool.
  double numeric() const;

  /// Postgres text output: integers plain, floats shortest, bools "t"/"f".
  /// NULL renders as an empty string (callers emit wire NULL separately).
  std::string to_text() const;
  /// Appends to_text() to `out`.
  void append_text(std::string& out) const;

  /// Three-valued SQL comparison: nullopt when either side is NULL.
  /// Two integers compare exactly, as Postgres int8 does; other numeric
  /// pairs compare as doubles; text compares bytewise. Cross-type
  /// text/number comparisons attempt numeric coercion of the text side
  /// (Postgres would error; our subset coerces, which is enough for the
  /// workloads and keeps both engines consistent). The int/int case, the
  /// one every keyed predicate takes, is inline.
  std::optional<int> compare(const Datum& other) const {
    if (type() == Type::kInt && other.type() == Type::kInt) {
      int64_t x = as_int(), y = other.as_int();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    return compare_other(other);
  }

  /// Equality for hashing/grouping: NULLs group together (SQL GROUP BY).
  bool group_equal(const Datum& other) const;
  size_t hash() const;

  /// Same type and same value: NULL equals NULL, floats compare with
  /// `==` (NaN unequal to itself), text bytewise.
  bool operator==(const Datum& other) const;

 private:
  /// len_ of a text whose bytes are on the heap, or viewed.
  static constexpr uint8_t kHeap = 0xFF, kView = 0xFE;

  explicit Datum(Type t) : tag_(static_cast<uint8_t>(t)) {}

  template <typename T>
  T load(size_t at) const {
    T v;
    std::memcpy(&v, buf_ + at, sizeof v);
    return v;
  }
  bool on_heap() const { return len_ == kHeap; }
  void store(std::string_view s) {
    const char* p = s.data();
    const size_t size = s.size();
    std::memcpy(buf_, &p, sizeof p);
    std::memcpy(buf_ + 8, &size, sizeof size);
  }
  void release() {
    if (on_heap()) delete[] load<char*>(0);
  }
  /// Makes this a heap text holding a new copy of `s`.
  void copy_to_heap(std::string_view s);
  void copy_from(const Datum& other);
  /// Steals `other`'s bytes. A moved-from text is empty, as a moved-from
  /// std::string is; other types keep their value.
  void take_from(Datum& other) {
    std::memcpy(static_cast<void*>(this), &other, sizeof *this);
    if (other.type() == Type::kText) other.len_ = 0;
  }
  /// compare() for every pair but int/int.
  std::optional<int> compare_other(const Datum& other) const;

  // bool in byte 0; int64, double or a heap text's pointer in bytes
  // 0..7 and its size in 8..15; an inline text in bytes 0..len_-1.
  alignas(8) char buf_[kInlineText] = {};
  uint8_t len_ = 0;  // text: inline length, or kHeap
  uint8_t tag_ = 0;  // Type
};

static_assert(sizeof(Datum) == 24);

}  // namespace rddr::sqldb
