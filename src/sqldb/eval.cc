#include "sqldb/eval.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/strutil.h"
#include "sqldb/parser.h"

namespace rddr::sqldb {

namespace {

constexpr int kMaxFunctionDepth = 16;

bool like_match(std::string_view text, std::string_view pat) {
  // Iterative wildcard match: '%' any run, '_' one char.
  size_t ti = 0, pi = 0, star_ti = std::string_view::npos, star_pi = 0;
  while (ti < text.size()) {
    if (pi < pat.size() && (pat[pi] == '_' || pat[pi] == text[ti])) {
      ++ti;
      ++pi;
    } else if (pi < pat.size() && pat[pi] == '%') {
      star_pi = ++pi;
      star_ti = ti;
    } else if (star_ti != std::string_view::npos) {
      pi = star_pi;
      ti = ++star_ti;
    } else {
      return false;
    }
  }
  while (pi < pat.size() && pat[pi] == '%') ++pi;
  return pi == pat.size();
}

/// Expands a plpgsql RAISE NOTICE format: each '%' consumes one argument.
std::string expand_notice(const std::string& fmt,
                          const std::vector<Datum>& args) {
  std::string out;
  size_t arg = 0;
  for (size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] == '%' && i + 1 < fmt.size() && fmt[i + 1] == '%') {
      out.push_back('%');
      ++i;
    } else if (fmt[i] == '%') {
      out += arg < args.size() ? args[arg].to_text() : "<null>";
      ++arg;
    } else {
      out.push_back(fmt[i]);
    }
  }
  return out;
}

/// Whether an argument of kind `kind` keeps a value of type `t` as it is.
bool keeps(ArgKind kind, Type t) {
  constexpr unsigned kNull = 1u << int(Type::kNull);
  constexpr unsigned kKeeps[] = {
      ~0u,                                                      // kAny
      kNull | 1u << int(Type::kText),                           // kText
      kNull | 1u << int(Type::kInt) | 1u << int(Type::kFloat),  // kNumber
      kNull | 1u << int(Type::kInt),                            // kInt8
  };
  return kKeeps[int(kind)] >> int(t) & 1;
}

/// `d` read as `kind`, as coerce() reads it for a column: `d` itself, or
/// `tmp` holding the reading, or null with `err` set when it does not read.
const Datum* read_as(ArgKind kind, const Datum& d, Datum& tmp,
                     SqlError& err) {
  const Type t = d.type();
  if (keeps(kind, t)) return &d;
  // A number reads a bool as an int and text as a float.
  const Type as = kind == ArgKind::kText ? Type::kText
                  : kind == ArgKind::kInt8 || t == Type::kBool ? Type::kInt
                                                                : Type::kFloat;
  tmp = d;
  return coerce(tmp, as, err) ? &tmp : nullptr;
}

/// Each of a builtin's `count` arguments `v[i]` read as its kind, into
/// `read[i]` when that changes it; false with `err` set when one does not
/// read.
[[gnu::noinline]] bool read_args(const BuiltinDef& def, const Datum** v,
                                 Datum* read, size_t count, SqlError& err) {
  for (size_t i = 0; i < std::size(def.kinds) && i < count; ++i)
    if (!(v[i] = read_as(def.kinds[i], *v[i], read[i], err))) return false;
  return true;
}

// The ends of a builtin call that fail, out of line: false, with `err`
// set to 42883 for a call outside the arity, or to a declared error.
[[gnu::cold]] bool no_such_builtin(std::string_view name, size_t count,
                                   SqlError& err) {
  err = {"42883",
         strformat("function %.*s(%zu arguments) does not exist",
                   static_cast<int>(name.size()), name.data(), count)};
  return false;
}
[[gnu::cold]] bool raise(const BuiltinDef::Error& e, SqlError& err) {
  err = {e.sqlstate, e.message};
  return false;
}

/// Operand values of one node: pointers to each value plus storage for
/// the ones computed into temporaries, or read as a builtin's argument
/// kind. Up to four operands need no heap.
class Operands {
 public:
  explicit Operands(size_t n) {
    if (n > kInline) {
      heap_tmp_.resize(n);
      heap_ptr_.resize(n);
      tmp_ = heap_tmp_.data();
      ptr_ = heap_ptr_.data();
    }
  }
  Operands(const Operands&) = delete;
  Operands& operator=(const Operands&) = delete;

  Datum* tmp() { return tmp_; }
  const Datum** values() { return ptr_; }

 private:
  static constexpr size_t kInline = 4;
  Datum inline_tmp_[kInline];
  const Datum* inline_ptr_[kInline] = {};
  std::vector<Datum> heap_tmp_;
  std::vector<const Datum*> heap_ptr_;
  Datum* tmp_ = inline_tmp_;
  const Datum** ptr_ = inline_ptr_;
};

// ---------- builtins ----------

/// Characters of UTF-8 `s`: the bytes that start one.
int64_t utf8_length(std::string_view s) {
  return std::count_if(s.begin(), s.end(),
                       [](char c) { return (c & 0xC0) != 0x80; });
}

/// Byte offset of character `n` (from 0) of UTF-8 `s`, or its size.
size_t utf8_offset(std::string_view s, int64_t n) {
  for (size_t i = 0; i < s.size(); ++i)
    if ((s[i] & 0xC0) != 0x80 && n-- == 0) return i;
  return s.size();
}

using Args = const BuiltinArgs&;
constexpr ArgKind kText = ArgKind::kText, kNumber = ArgKind::kNumber,
                  kInt8 = ArgKind::kInt8;
constexpr uint8_t kVariadic = BuiltinDef::kVariadic;

/// `x op y` of two numbers: int8 when both are ints, where leaving the
/// int64 range raises errors[0] (22003), as in Postgres, never a wrapped
/// value; a double otherwise.
template <typename IntOp, typename FloatOp>
Datum arithmetic(Args a, IntOp overflows, FloatOp op) {
  const Datum &x = *a.v[0], &y = *a.v[1];
  if (x.type() != Type::kInt || y.type() != Type::kInt)
    return Datum::floating(op(x.numeric(), y.numeric()));
  int64_t r;
  if (overflows(x.as_int(), y.as_int(), r)) return a.raise(0);
  return Datum::integer(r);
}

/// The three-way comparison of a comparison operator's two arguments,
/// neither of them NULL.
int compare(Args a) { return *a.v[0]->compare(*a.v[1]); }

// Names, arity, strict, argument kinds, declared errors and body of each
// builtin, as PostgreSQL 16 defines its namesake (§9.1 logical, §9.2
// comparison and §9.3 mathematical operators, §9.3 mathematical, §9.4
// string, §9.18 conditional and §9.26 session information functions). An
// operator is named by its symbol; `-` is both negation and subtraction.
constexpr BuiltinDef kBuiltins[] = {
    {{"lower"}, 1, 1, true, {kText}, {},
     [](Args a) { return Datum::text(to_lower(a.v[0]->as_text())); }},
    {{"upper"}, 1, 1, true, {kText}, {},
     [](Args a) { return Datum::text(to_upper(a.v[0]->as_text())); }},
    {{"length"}, 1, 1, true, {kText}, {},
     [](Args a) { return Datum::integer(utf8_length(a.v[0]->as_text())); }},
    {{"substr", "substring"}, 2, 3, true, {kText, kInt8, kInt8},
     {{"22011", "negative substring length not allowed", "'abc', 1, -1"}},
     [](Args a) {
       // Characters [start, start + len) clipped to [1, length]; the
       // 2-argument form runs to the end.
       const std::string_view s = a.v[0]->as_text();
       const int64_t size = utf8_length(s), start = a.v[1]->as_int();
       const int64_t len = a.count == 3 ? a.v[2]->as_int() : 0;
       if (len < 0) return a.raise(0);
       const int64_t end =
           a.count == 3 && start <= size + 1 - len ? start + len : size + 1;
       const int64_t begin = std::max<int64_t>(start, 1);
       if (begin >= end) return Datum::text("");
       const size_t from = utf8_offset(s, begin - 1);
       return Datum::text(s.substr(from, utf8_offset(s, end - 1) - from));
     }},
    {{"concat"}, 1, kVariadic, false, {}, {}, [](Args a) {
       std::string s;  // a NULL argument adds nothing
       for (size_t i = 0; i < a.count; ++i) a.v[i]->append_text(s);
       return Datum::text(s);
     }},
    {{"coalesce"}, 1, kVariadic, false, {}, {}, [](Args a) {
       for (size_t i = 0; i < a.count; ++i)
         if (!a.v[i]->is_null()) return *a.v[i];
       return Datum();
     }},
    {{"abs"}, 1, 1, true, {kNumber},
     {{"22003", "bigint out of range", "-9223372036854775808"}},
     [](Args a) {
       const Datum& x = *a.v[0];
       if (x.type() == Type::kFloat)
         return Datum::floating(std::fabs(x.as_float()));
       if (x.as_int() == INT64_MIN) return a.raise(0);
       return Datum::integer(std::llabs(x.as_int()));
     }},
    {{"round"}, 1, 2, true, {kNumber, kInt8}, {}, [](Args a) {
       // Half away from zero, as Postgres rounds numeric.
       const double digits = a.count == 2 ? a.v[1]->numeric() : 0;
       const double scale = std::pow(10.0, digits);
       return Datum::floating(std::round(a.v[0]->numeric() * scale) / scale);
     }},
    {{"floor"}, 1, 1, true, {kNumber}, {},
     [](Args a) { return Datum::floating(std::floor(a.v[0]->numeric())); }},
    {{"ceil"}, 1, 1, true, {kNumber}, {},
     [](Args a) { return Datum::floating(std::ceil(a.v[0]->numeric())); }},
    {{"mod", "%"}, 2, 2, true, {kNumber, kNumber},
     {{"22012", "division by zero", "1, 0"}},
     [](Args a) {
       const Datum &x = *a.v[0], &y = *a.v[1];
       if (y.numeric() == 0) return a.raise(0);
       if (x.type() != Type::kInt || y.type() != Type::kInt)
         return Datum::floating(std::fmod(x.numeric(), y.numeric()));
       // x % -1 is 0 for every x, INT64_MIN included (Postgres int8mod).
       return Datum::integer(y.as_int() == -1 ? 0 : x.as_int() % y.as_int());
     }},
    {{"power"}, 2, 2, true, {kNumber, kNumber},
     {{"2201F", "zero raised to a negative power is undefined", "0, -1"},
      {"2201F",
       "a negative number raised to a non-integer power yields a complex "
       "result",
       "-8, 0.5"},
      {"22003", "value out of range: overflow", "10, 400"},
      {"22003", "value out of range: underflow", "10, -400"}},
     [](Args a) {
       const double x = a.v[0]->numeric(), y = a.v[1]->numeric();
       const double r = std::pow(x, y);
       if (x == 0 && y < 0) return a.raise(0);
       if (x < 0 && y != std::floor(y)) return a.raise(1);
       if (std::isinf(r)) return a.raise(2);
       if (r == 0 && x != 0) return a.raise(3);
       return Datum::floating(r);
     }},
    {{"version"}, 0, 0, true, {}, {},
     [](Args a) { return Datum::text(a.db.info().version_banner); }},
    {{"current_user"}, 0, 0, true, {}, {},
     [](Args a) { return Datum::text(a.user); }},
    {{"not"}, 1, 1, true, {},
     {{"42804", "argument of NOT must be boolean", "1"}},
     [](Args a) {
       const Datum& x = *a.v[0];
       if (x.type() != Type::kBool) return a.raise(0);
       return Datum::boolean(!x.as_bool());
     }},
    {{"+"}, 2, 2, true, {kNumber, kNumber},
     {{"22003", "bigint out of range", "9223372036854775807, 1"}},
     [](Args a) {
       return arithmetic(
           a, [](int64_t x, int64_t y, int64_t& r) {
             return __builtin_add_overflow(x, y, &r);
           },
           [](double x, double y) { return x + y; });
     }},
    {{"-"}, 1, 2, true, {kNumber, kNumber},
     {{"22003", "bigint out of range", "-9223372036854775808, 1"},
      {"22003", "bigint out of range", "-9223372036854775808"}},
     [](Args a) {
       if (a.count == 2)
         return arithmetic(
             a, [](int64_t x, int64_t y, int64_t& r) {
               return __builtin_sub_overflow(x, y, &r);
             },
             [](double x, double y) { return x - y; });
       const Datum& x = *a.v[0];
       if (x.type() != Type::kInt) return Datum::floating(-x.numeric());
       if (x.as_int() == INT64_MIN) return a.raise(1);
       return Datum::integer(-x.as_int());
     }},
    {{"*"}, 2, 2, true, {kNumber, kNumber},
     {{"22003", "bigint out of range", "4611686018427387904, 2"}},
     [](Args a) {
       return arithmetic(
           a, [](int64_t x, int64_t y, int64_t& r) {
             return __builtin_mul_overflow(x, y, &r);
           },
           [](double x, double y) { return x * y; });
     }},
    {{"/"}, 2, 2, true, {kNumber, kNumber},
     {{"22012", "division by zero", "1, 0"},
      {"22003", "bigint out of range", "-9223372036854775808, -1"}},
     [](Args a) {
       const Datum &x = *a.v[0], &y = *a.v[1];
       if (x.type() != Type::kInt || y.type() != Type::kInt) {
         if (y.numeric() == 0) return a.raise(0);
         return Datum::floating(x.numeric() / y.numeric());
       }
       if (y.as_int() == 0) return a.raise(0);
       if (x.as_int() == INT64_MIN && y.as_int() == -1) return a.raise(1);
       return Datum::integer(x.as_int() / y.as_int());
     }},
    {{"||"}, 2, 2, true, {kText, kText}, {}, [](Args a) {
       std::string s(a.v[0]->as_text());
       return Datum::text(s.append(a.v[1]->as_text()));
     }},
    {{"="}, 2, 2, true, {}, {},
     [](Args a) { return Datum::boolean(compare(a) == 0); }},
    {{"<>", "!="}, 2, 2, true, {}, {},
     [](Args a) { return Datum::boolean(compare(a) != 0); }},
    {{"<"}, 2, 2, true, {}, {},
     [](Args a) { return Datum::boolean(compare(a) < 0); }},
    {{"<="}, 2, 2, true, {}, {},
     [](Args a) { return Datum::boolean(compare(a) <= 0); }},
    {{">"}, 2, 2, true, {}, {},
     [](Args a) { return Datum::boolean(compare(a) > 0); }},
    {{">="}, 2, 2, true, {}, {},
     [](Args a) { return Datum::boolean(compare(a) >= 0); }},
};

}  // namespace

std::span<const BuiltinDef> builtins() { return kBuiltins; }

uint8_t builtin_of(std::string_view name) {
  for (uint8_t i = 0; i < std::size(kBuiltins); ++i)
    for (std::string_view n : kBuiltins[i].names)
      if (n == name) return i;
  return kNoBuiltin;
}

bool is_operator_name(std::string_view name) {
  return name == "not" || !(name[0] >= 'a' && name[0] <= 'z');
}

bool coerce(Datum& d, Type target, SqlError& err) {
  if (d.is_null() || d.type() == target) return true;
  switch (target) {
    case Type::kInt:
      if (d.type() == Type::kFloat) {
        const double x = std::round(d.as_float());
        if (!(x >= -0x1p63 && x < 0x1p63)) {
          err = {"22003", "bigint out of range"};
          return false;
        }
        d = Datum::integer(static_cast<int64_t>(x));
      } else if (d.type() == Type::kText) {
        auto v = parse_i64(d.as_text());
        if (!v) break;
        d = Datum::integer(*v);
      } else if (d.type() == Type::kBool) {
        d = Datum::integer(d.as_bool() ? 1 : 0);
      }
      return true;
    case Type::kFloat:
      if (d.type() == Type::kInt) {
        d = Datum::floating(static_cast<double>(d.as_int()));
      } else if (d.type() == Type::kText) {
        auto v = parse_f64(d.as_text());
        if (!v) break;
        d = Datum::floating(*v);
      }
      return true;
    case Type::kText:
      d = Datum::text(d.to_text());
      return true;
    case Type::kBool:
      if (d.type() == Type::kInt)
        d = Datum::boolean(d.as_int() != 0);
      else if (d.type() == Type::kText)
        d = Datum::boolean(d.as_text() == "t" || d.as_text() == "true");
      return true;
    default:
      return true;
  }
  const std::string_view text = d.as_text();
  err = {"22P02", strformat("invalid input syntax for type %s: \"%.*s\"",
                            type_name(target).c_str(),
                            static_cast<int>(text.size()), text.data())};
  return false;
}

// ---------- binding ----------

const Node* Evaluator::bind(Node& e, std::span<const ScopeLevel> scope) {
  for (Node* k = e.first; k; k = k->next) bind(*k, scope);
  if (!is_column_ref(e.op)) return &e;
  // The scope is the same for every row, so resolution is too; only its
  // errors wait for a row to be evaluated.
  bool found = false;
  e.ambiguous = false;
  for (size_t l = 0; l < scope.size(); ++l) {
    if (!e.table.empty() && scope[l].alias != e.table) continue;
    int idx = scope[l].table->find_column(e.name);
    if (idx < 0) continue;
    if (found) {
      e.ambiguous = true;
      break;
    }
    found = true;
    e.level = static_cast<uint32_t>(l);
    e.column = static_cast<uint32_t>(idx);
    if (!e.table.empty()) break;
  }
  if (found && !e.ambiguous) {
    e.op = Op::kColumn;
  } else if (!found && e.table.empty() && e.name == "current_user") {
    // Postgres exposes current_user as a bare keyword, not a call.
    e.op = Op::kCurrentUser;
  } else {
    e.op = Op::kBadColumn;
  }
  return &e;
}

Result<Script> parse_bound(std::string_view sql,
                           std::span<const ScopeLevel> scope) {
  auto parsed = parse_expression(sql);
  if (parsed.ok()) Evaluator::bind(parsed.value().expression(), scope);
  return parsed;
}

std::optional<Evaluator::JoinKey> Evaluator::join_key(const Node* on,
                                                     uint32_t level) const {
  auto calls_catalog = [&](auto& self, const Node& n) -> bool {
    if (n.op == Op::kCustomOp ||
        (n.op == Op::kCall && db_.functions().contains(n.name)))
      return true;
    for (const Node* k = n.first; k; k = k->next)
      if (self(self, *k)) return true;
    return false;
  };
  if (calls_catalog(calls_catalog, *on)) return std::nullopt;
  auto find = [&](auto& self, const Node& n) -> std::optional<JoinKey> {
    if (n.op == Op::kAnd) {
      if (auto key = self(self, n.kid(0))) return key;
      return self(self, n.kid(1));
    }
    if (!is_operator(n, "=")) return std::nullopt;
    const Node& a = n.kid(0);
    const Node& b = n.kid(1);
    if (a.op != Op::kColumn || b.op != Op::kColumn) return std::nullopt;
    if (a.level == level && b.level < level)
      return JoinKey{a.column, b.level, b.column};
    if (b.level == level && a.level < level)
      return JoinKey{b.column, a.level, a.column};
    return std::nullopt;
  };
  return find(find, *on);
}

// ---------- evaluation entry points ----------

const Datum* Evaluator::eval(const Node* root, const Row* const* rows,
                             Datum& tmp) {
  rows_ = rows;
  return ev(*root, tmp);
}

const Datum* Evaluator::eval_constant(Node& e, Datum& tmp) {
  return eval(bind(e, {}), nullptr, tmp);
}

const Datum* Evaluator::eval_group(Node& root, const GroupRows& group,
                                   Datum& tmp) {
  if (group.size == 0) bind(root, {});
  group_ = &group;
  const Datum* v = eval(&root, group.size ? group.member(0) : nullptr, tmp);
  group_ = nullptr;
  return v;
}

bool Evaluator::row_visible(const TableData& t, const Row& row,
                            bool& visible) {
  auto* notices = notices_;
  notices_ = nullptr;
  const Row* scope = &row;
  visible = false;
  bool ok = true;
  for (const Policy& pol : t.policies) {
    if (!pol.role.empty() && pol.role != user_) continue;
    Datum tmp;
    const Datum* v = eval(&pol.using_expr.expression(), &scope, tmp);
    if (!v) {
      ok = false;
      break;
    }
    if (datum_is_true(*v)) visible = true;
  }
  notices_ = notices;
  return ok;
}

bool Evaluator::call_function(const FunctionDef& fn, const Datum* const* args,
                              size_t count, Datum& out) {
  if (depth_ >= kMaxFunctionDepth) {
    fail("54001", "function call depth limit exceeded");
    return false;
  }
  if (count != fn.nargs) {
    fail("42883", strformat("function %s expects %zu arguments, got %zu",
                            fn.name.c_str(), fn.nargs, count));
    return false;
  }
  std::vector<Datum> params;
  params.reserve(count);
  for (size_t i = 0; i < count; ++i) params.push_back(*args[i]);
  const Row* const* rows = rows_;
  const GroupRows* group = group_;
  const std::vector<Datum>* outer_params = params_;
  rows_ = nullptr;
  group_ = nullptr;
  params_ = &params;
  ++depth_;
  bool ok = true;
  if (fn.notice_format && notices_) {
    std::vector<Datum> values;
    for (const Script& arg : fn.notice_args) {
      Datum tmp;
      const Datum* v = ev(arg.expression(), tmp);
      if (!v) {
        ok = false;
        break;
      }
      values.push_back(*v);
    }
    if (ok) notices_->push_back(expand_notice(*fn.notice_format, values));
  }
  if (ok) {
    if (!fn.return_expr) {
      out = Datum();
    } else {
      Datum tmp;
      const Datum* v = ev(fn.return_expr->expression(), tmp);
      if (v) out = *v;
      ok = v != nullptr;
    }
  }
  --depth_;
  params_ = outer_params;
  group_ = group;
  rows_ = rows;
  return ok;
}

const Datum* Evaluator::fail(std::string sqlstate, std::string message) {
  error_ = SqlError{std::move(sqlstate), std::move(message)};
  return nullptr;
}

// ---------- the evaluator ----------

/// Leaves, which most operands are, are read here without a call into
/// the node switch.
inline const Datum* Evaluator::ev(const Node& n, Datum& tmp) {
  if (n.op == Op::kColumn) return &(*rows_[n.level])[n.column];
  if (n.op == Op::kLiteral) return &n.literal;
  return ev_node(n, tmp);
}

/// The builtin prologue, for functions and operators alike: `def`'s arity
/// (42883), NULL for a NULL argument of a strict builtin, and each
/// argument read as its kind (read_args). Then the body computes `out` or
/// raises a declared error.
[[gnu::always_inline]] inline bool Evaluator::builtin(
    const BuiltinDef& def, std::string_view name, const Datum** v, Datum* read,
    size_t count, Datum& out) {
  if (count < def.min_args ||
      (def.max_args != kVariadic && count > def.max_args)) [[unlikely]]
    return no_such_builtin(name, count, error_);
  for (size_t i = 0; def.strict && i < count; ++i) {
    if (v[i]->is_null()) {
      out = Datum();
      return true;
    }
  }
  // Most arguments already have a type their kind keeps.
  for (size_t i = 0; i < std::size(def.kinds) && i < count; ++i) {
    if (keeps(def.kinds[i], v[i]->type())) continue;
    if (!read_args(def, v, read, count, error_)) return false;
    break;
  }
  const BuiltinArgs a{v, count, db_, user_};
  out = def.body(a);
  if (!a.raised) [[likely]]
    return true;
  return raise(def.errors[a.raised - 1], error_);
}

const Datum* Evaluator::ev_node(const Node& n, Datum& tmp) {
  switch (n.op) {
    case Op::kLiteral:
    case Op::kColumn:
      return ev(n, tmp);
    case Op::kBadColumn:
      if (n.ambiguous)
        return fail("42702",
                    "ambiguous column reference: " + std::string(n.name));
      return column_without_row(n, tmp);
    case Op::kCurrentUser:
      tmp = Datum::text(user_);
      return &tmp;
    case Op::kParam: {
      const size_t i = n.column;
      if (!params_ || i < 1 || i > params_->size())
        return fail("42P02", strformat("parameter $%zu out of range", i));
      return &(*params_)[i - 1];
    }
    case Op::kAnd:
    case Op::kOr: {
      // Three-valued logic: a side decides when it is false for AND or
      // true for OR, so the right side is evaluated only when the left
      // one does not.
      const bool is_and = n.op == Op::kAnd;
      auto decides = [is_and](const Datum& d) {
        return is_and ? !d.is_null() && !datum_is_true(d) : datum_is_true(d);
      };
      Datum lt, rt;
      const Datum* l = ev(*n.first, lt);
      if (!l) return nullptr;
      const Datum* r = decides(*l) ? l : ev(*n.first->next, rt);
      if (!r) return nullptr;
      if (decides(*r)) tmp = Datum::boolean(!is_and);
      else if (l->is_null() || r->is_null()) tmp = Datum();
      else tmp = Datum::boolean(is_and);
      return &tmp;
    }
    case Op::kInList: {
      Datum vt;
      const Datum* v = ev(*n.first, vt);
      if (!v) return nullptr;
      bool saw_null = v->is_null();
      for (const Node* k = n.first->next; k; k = k->next) {
        Datum it;
        const Datum* item = ev(*k, it);
        if (!item) return nullptr;
        auto c = v->compare(*item);
        if (!c) {
          saw_null = true;
          continue;
        }
        if (*c == 0) {
          tmp = Datum::boolean(!n.negated);
          return &tmp;
        }
      }
      tmp = saw_null ? Datum() : Datum::boolean(n.negated);
      return &tmp;
    }
    case Op::kCase: {
      const Node* k = n.first;
      for (size_t i = 0; i + 1 < n.n_kids; i += 2, k = k->next->next) {
        Datum ct;
        const Datum* c = ev(*k, ct);
        if (!c) return nullptr;
        if (datum_is_true(*c)) return ev(*k->next, tmp);
      }
      if (n.has_else) return ev(*k, tmp);
      tmp = Datum();
      return &tmp;
    }
    case Op::kAggregate:
      if (group_) return aggregate(n, *group_, tmp) ? &tmp : nullptr;
      return fail("42803",
                  "aggregate not allowed here: " + std::string(n.name));
    case Op::kOperator: {
      Datum t[2];
      const Datum* v[2];
      if (!(v[0] = ev(*n.first, t[0]))) return nullptr;
      if (n.n_kids == 2 && !(v[1] = ev(*n.first->next, t[1]))) return nullptr;
      return builtin(kBuiltins[n.builtin], n.name, v, t, n.n_kids, tmp)
                 ? &tmp
                 : nullptr;
    }
    case Op::kIsNull: {
      const Datum* v = ev(*n.first, tmp);
      if (!v) return nullptr;
      tmp = Datum::boolean(v->is_null() != n.negated);
      return &tmp;
    }
    case Op::kCustomOp:
    case Op::kCall:
    case Op::kLike:
    case Op::kBetween:
      break;
  }
  // Every operand, in order, then the operator.
  Operands ops(n.n_kids);
  const Datum** v = ops.values();
  size_t i = 0;
  for (const Node* k = n.first; k; k = k->next, ++i)
    if (!(v[i] = ev(*k, ops.tmp()[i]))) return nullptr;
  switch (n.op) {
    case Op::kLike: {
      if (v[0]->is_null() || v[1]->is_null()) {
        tmp = Datum();
        return &tmp;
      }
      Datum t, p;
      const bool m = like_match(read_as(kText, *v[0], t, error_)->as_text(),
                                read_as(kText, *v[1], p, error_)->as_text());
      tmp = Datum::boolean(m != n.negated);
      return &tmp;
    }
    case Op::kBetween: {
      auto c1 = v[0]->compare(*v[1]);
      auto c2 = v[0]->compare(*v[2]);
      tmp = !c1 || !c2 ? Datum()
                       : Datum::boolean((*c1 >= 0 && *c2 <= 0) != n.negated);
      return &tmp;
    }
    case Op::kCall: {
      // A user-defined function shadows the builtin of its name.
      auto fit = db_.functions().find(n.name);
      if (fit != db_.functions().end())
        return call_function(fit->second, v, n.n_kids, tmp) ? &tmp : nullptr;
      if (n.builtin == kNoBuiltin)
        return fail("42883", "unknown function: " + std::string(n.name));
      return builtin(kBuiltins[n.builtin], n.name, v, ops.tmp(), n.n_kids, tmp)
                 ? &tmp
                 : nullptr;
    }
    default: {
      // Custom operator: resolved through the operator catalog.
      auto oit = db_.operators().find(n.name);
      if (oit == db_.operators().end())
        return fail("42883", "operator does not exist: " + std::string(n.name));
      auto fit = db_.functions().find(oit->second.procedure);
      if (fit == db_.functions().end())
        return fail("42883",
                    "operator procedure missing: " + oit->second.procedure);
      return call_function(fit->second, v, 2, tmp) ? &tmp : nullptr;
    }
  }
}

/// A column reference evaluated with no row in scope: only the bare
/// current_user keyword has a value.
const Datum* Evaluator::column_without_row(const Node& n, Datum& tmp) {
  if (n.table.empty() && n.name == "current_user") {
    tmp = Datum::text(user_);
    return &tmp;
  }
  std::string name(n.table);
  if (!name.empty()) name += '.';
  return fail("42703", "column does not exist: " + name.append(n.name));
}

bool Evaluator::aggregate(const Node& n, const GroupRows& g, Datum& out) {
  const std::string_view fn = n.name;
  int64_t count = 0;
  double sum = 0;
  __int128 int_sum = 0;  // exact while every value is an int
  bool any = false;
  bool all_int = true;
  Datum min_v, max_v;
  std::vector<Datum> seen;  // DISTINCT support
  const Datum one = Datum::integer(1);
  // The argument is evaluated for each member as for a row, where an
  // aggregate is not allowed (42803). An error ends the evaluation, so
  // only a success puts the group and its first member back in scope.
  const Row* const* rows = rows_;
  group_ = nullptr;
  for (size_t i = 0; i < g.size; ++i) {
    Datum tmp;
    const Datum* v = &one;
    if (!n.star) {
      if (n.n_kids == 0) continue;  // no argument: nothing to aggregate
      rows_ = g.member(i);
      v = ev(*n.first, tmp);
      if (!v) return false;
    }
    if (v->is_null()) continue;
    if (n.distinct) {
      bool dup = false;
      for (const auto& s : seen)
        if (s.group_equal(*v)) {
          dup = true;
          break;
        }
      if (dup) continue;
      seen.push_back(*v);
    }
    ++count;
    Type t = v->type();
    if (t != Type::kInt) all_int = false;
    else int_sum += v->as_int();
    if (t == Type::kInt || t == Type::kFloat || t == Type::kBool)
      sum += v->numeric();
    if (!any) {
      min_v = *v;
      max_v = *v;
      any = true;
    } else {
      auto c1 = v->compare(min_v);
      if (c1 && *c1 < 0) min_v = *v;
      auto c2 = v->compare(max_v);
      if (c2 && *c2 > 0) max_v = *v;
    }
  }
  rows_ = rows;
  group_ = &g;
  if (fn == "count") {
    out = Datum::integer(count);
  } else if (!any) {
    out = Datum();  // SUM/AVG/MIN/MAX over empty -> NULL
  } else if (fn == "sum") {
    if (!all_int) {
      out = Datum::floating(sum);
    } else if (int_sum > INT64_MAX || int_sum < INT64_MIN) {
      fail("22003", "bigint out of range");
      return false;
    } else {
      out = Datum::integer(static_cast<int64_t>(int_sum));
    }
  } else if (fn == "avg") {
    out = Datum::floating(sum / static_cast<double>(count));
  } else if (fn == "min") {
    out = std::move(min_v);
  } else if (fn == "max") {
    out = std::move(max_v);
  } else {
    fail("42883", "unknown aggregate: " + std::string(fn));
    return false;
  }
  return true;
}

}  // namespace rddr::sqldb
