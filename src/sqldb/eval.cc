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

/// SQL three-valued AND/OR of two operands. The left-only outcomes are
/// the ones the lazy evaluator short-circuits on.
Datum logic(bool is_and, const Datum& l, const Datum& r) {
  bool l_known = !l.is_null();
  bool l_true = datum_is_true(l);
  if (is_and && l_known && !l_true) return Datum::boolean(false);
  if (!is_and && l_true) return Datum::boolean(true);
  bool r_known = !r.is_null();
  bool r_true = datum_is_true(r);
  if (is_and) {
    if (!l_known || !r_known)
      return r_known && !r_true ? Datum::boolean(false) : Datum();
    return Datum::boolean(l_true && r_true);
  }
  if (!l_known || !r_known) return r_true ? Datum::boolean(true) : Datum();
  return Datum::boolean(l_true || r_true);
}

/// IN-list membership of `v` among `items`: true on a match, NULL when a
/// comparison was unknown, false otherwise (NOT IN inverts the known
/// outcomes).
Datum in_list(bool negated, const Datum& v, const Datum* const* items,
              size_t count) {
  bool saw_null = v.is_null();
  for (size_t i = 0; i < count; ++i) {
    auto c = v.compare(*items[i]);
    if (!c) {
      saw_null = true;
      continue;
    }
    if (*c == 0) return Datum::boolean(!negated);
  }
  if (saw_null) return Datum();
  return Datum::boolean(negated);
}

/// `d` read as `kind`, as coerce() reads it for a column: `d` itself, or
/// `tmp` holding the reading, or null with `err` set when it does not read.
const Datum* read_as(ArgKind kind, const Datum& d, Datum& tmp,
                     SqlError& err) {
  const Type t = d.type();
  Type as = t;
  if (kind == ArgKind::kText) as = Type::kText;
  if (kind == ArgKind::kInt8) as = Type::kInt;
  if (kind == ArgKind::kNumber && t == Type::kBool) as = Type::kInt;
  if (kind == ArgKind::kNumber && t == Type::kText) as = Type::kFloat;
  if (as == t || t == Type::kNull) return &d;
  tmp = d;
  return coerce(tmp, as, err) ? &tmp : nullptr;
}

/// Operand values of one node: pointers to each value plus storage for
/// the ones computed into temporaries. Up to four operands need no heap.
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

  Datum& tmp(size_t i) { return tmp_[i]; }
  void set(size_t i, const Datum* v) { ptr_[i] = v; }
  const Datum* const* values() const { return ptr_; }

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

// Names, arity, strict, argument kinds, declared errors and body of each
// builtin, as PostgreSQL 16 defines its namesake (§9.3 mathematical, §9.4
// string, §9.18 conditional and §9.26 session information functions).
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
    {{"mod"}, 2, 2, true, {kNumber, kNumber},
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
};

const BuiltinDef& kModBuiltin = kBuiltins[builtin_of("mod")];

}  // namespace

std::span<const BuiltinDef> builtins() { return kBuiltins; }

uint8_t builtin_of(std::string_view name) {
  for (uint8_t i = 0; i < std::size(kBuiltins); ++i)
    for (std::string_view n : kBuiltins[i].names)
      if (n == name) return i;
  return kNoBuiltin;
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
    if (n.op != Op::kEq) return std::nullopt;
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

const Datum* Evaluator::eval_group(const Node* root, const GroupRows& group,
                                   Datum& tmp) {
  return ev_group(*root, group, tmp);
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
  const std::vector<Datum>* outer_params = params_;
  rows_ = nullptr;
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
      // Three-valued short-circuit: the right side is evaluated only
      // when the left one does not decide.
      bool is_and = n.op == Op::kAnd;
      Datum lt;
      const Datum* l = ev(*n.first, lt);
      if (!l) return nullptr;
      bool l_true = datum_is_true(*l);
      if ((is_and && !l->is_null() && !l_true) || (!is_and && l_true)) {
        tmp = Datum::boolean(l_true);
        return &tmp;
      }
      Datum rt;
      const Datum* r = ev(*n.first->next, rt);
      if (!r) return nullptr;
      tmp = logic(is_and, *l, *r);
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
      return fail("42803",
                  "aggregate not allowed here: " + std::string(n.name));
    case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe: case Op::kGt:
    case Op::kGe: case Op::kConcat: case Op::kAdd: case Op::kSub:
    case Op::kMul: case Op::kDiv: case Op::kMod: case Op::kCustomOp: {
      Datum lt, rt;
      const Datum* l = ev(*n.first, lt);
      if (!l) return nullptr;
      const Datum* r = ev(*n.first->next, rt);
      if (!r) return nullptr;
      return binary(n, *l, *r, tmp) ? &tmp : nullptr;
    }
    case Op::kNeg: case Op::kNot: case Op::kCall: case Op::kIsNull:
    case Op::kLike: case Op::kBetween:
      break;
  }
  // Strict nodes: every operand, in order, then the operator.
  Operands ops(n.n_kids);
  size_t i = 0;
  for (const Node* k = n.first; k; k = k->next, ++i) {
    const Datum* v = ev(*k, ops.tmp(i));
    if (!v) return nullptr;
    ops.set(i, v);
  }
  return apply(n, ops.values(), n.n_kids, tmp) ? &tmp : nullptr;
}

const Datum* Evaluator::ev_group(const Node& n, const GroupRows& g,
                                 Datum& tmp) {
  if (n.op == Op::kAggregate) return aggregate(n, g, tmp) ? &tmp : nullptr;
  if (n.n_kids == 0) {
    if (g.size == 0 && (n.op == Op::kColumn || n.op == Op::kBadColumn ||
                        n.op == Op::kCurrentUser))
      return column_without_row(n, tmp);
    rows_ = g.size ? g.member(0) : nullptr;
    return ev(n, tmp);
  }
  // Every operand is evaluated (no short-circuit), then the operator is
  // applied to the values.
  Operands ops(n.n_kids);
  size_t i = 0;
  for (const Node* k = n.first; k; k = k->next, ++i) {
    const Datum* v = ev_group(*k, g, ops.tmp(i));
    if (!v) return nullptr;
    ops.set(i, v);
  }
  return apply(n, ops.values(), n.n_kids, tmp) ? &tmp : nullptr;
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

bool Evaluator::apply(const Node& n, const Datum* const* v, size_t count,
                      Datum& out) {
  switch (n.op) {
    case Op::kNeg:
    case Op::kNot: {
      const Datum& d = *v[0];
      if (d.is_null()) {
        out = Datum();
      } else if (n.op == Op::kNeg) {
        // Text must read as a number, as for binary arithmetic (22P02).
        Datum t;
        const Datum* x = read_as(kNumber, d, t, error_);
        if (!x) return false;
        if (x->type() != Type::kInt) {
          out = Datum::floating(-x->numeric());
        } else if (x->as_int() == INT64_MIN) {
          fail("22003", "bigint out of range");
          return false;
        } else {
          out = Datum::integer(-x->as_int());
        }
      } else {
        if (d.type() != Type::kBool) {
          fail("42804", "argument of NOT must be boolean");
          return false;
        }
        out = Datum::boolean(!d.as_bool());
      }
      return true;
    }
    case Op::kAnd:
    case Op::kOr:
      out = logic(n.op == Op::kAnd, *v[0], *v[1]);
      return true;
    case Op::kCall:
      return call(n, v, count, out);
    case Op::kIsNull: {
      bool isnull = v[0]->is_null();
      out = Datum::boolean(n.negated ? !isnull : isnull);
      return true;
    }
    case Op::kLike: {
      if (v[0]->is_null() || v[1]->is_null()) {
        out = Datum();
        return true;
      }
      Datum t, p;
      bool m = like_match(read_as(kText, *v[0], t, error_)->as_text(),
                          read_as(kText, *v[1], p, error_)->as_text());
      out = Datum::boolean(n.negated ? !m : m);
      return true;
    }
    case Op::kBetween: {
      auto c1 = v[0]->compare(*v[1]);
      auto c2 = v[0]->compare(*v[2]);
      if (!c1 || !c2) {
        out = Datum();
      } else {
        bool in = *c1 >= 0 && *c2 <= 0;
        out = Datum::boolean(n.negated ? !in : in);
      }
      return true;
    }
    case Op::kInList:
      out = in_list(n.negated, *v[0], v + 1, count - 1);
      return true;
    case Op::kCase: {
      size_t pairs = (count - (n.has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        if (datum_is_true(*v[2 * i])) {
          out = *v[2 * i + 1];
          return true;
        }
      }
      out = n.has_else ? *v[count - 1] : Datum();
      return true;
    }
    default:
      return binary(n, *v[0], *v[1], out);
  }
}

bool Evaluator::binary(const Node& n, const Datum& l, const Datum& r,
                       Datum& out) {
  switch (n.op) {
    case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe: case Op::kGt:
    case Op::kGe: {
      auto c = l.compare(r);
      if (!c) {
        out = Datum();  // NULL comparison
        return true;
      }
      int cv = *c;
      bool res = false;
      switch (n.op) {
        case Op::kEq: res = cv == 0; break;
        case Op::kNe: res = cv != 0; break;
        case Op::kLt: res = cv < 0; break;
        case Op::kLe: res = cv <= 0; break;
        case Op::kGt: res = cv > 0; break;
        default: res = cv >= 0;
      }
      out = Datum::boolean(res);
      return true;
    }
    case Op::kConcat:
      out = l.is_null() || r.is_null() ? Datum()
                                       : Datum::text(l.to_text() + r.to_text());
      return true;
    case Op::kMod: {  // x % y is mod(x, y), as in Postgres
      const Datum* args[] = {&l, &r};
      return builtin(kModBuiltin, "mod", args, 2, out);
    }
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv: {
      if (l.is_null() || r.is_null()) {
        out = Datum();
        return true;
      }
      if (l.type() == Type::kInt && r.type() == Type::kInt) {
        // int8 arithmetic that leaves the int64 range is an error, as in
        // Postgres, never a wrapped value.
        int64_t a = l.as_int(), b = r.as_int(), res;
        bool overflow;
        switch (n.op) {
          case Op::kAdd: overflow = __builtin_add_overflow(a, b, &res); break;
          case Op::kSub: overflow = __builtin_sub_overflow(a, b, &res); break;
          case Op::kMul: overflow = __builtin_mul_overflow(a, b, &res); break;
          default:
            if (b == 0) return fail("22012", "division by zero");
            overflow = a == INT64_MIN && b == -1;
            res = overflow ? 0 : a / b;
        }
        if (overflow) return fail("22003", "bigint out of range");
        out = Datum::integer(res);
        return true;
      }
      // A text operand must read as a number (Postgres: 22P02).
      Datum lt, rt;
      const Datum* ln = read_as(kNumber, l, lt, error_);
      if (!ln) return false;
      const Datum* rn = read_as(kNumber, r, rt, error_);
      if (!rn) return false;
      const double a = ln->numeric(), b = rn->numeric();
      switch (n.op) {
        case Op::kAdd: out = Datum::floating(a + b); return true;
        case Op::kSub: out = Datum::floating(a - b); return true;
        case Op::kMul: out = Datum::floating(a * b); return true;
        default:
          if (b == 0) return fail("22012", "division by zero");
          out = Datum::floating(a / b);
          return true;
      }
    }
    default: {
      // Custom operator: resolve via the operator catalog.
      auto oit = db_.operators().find(n.name);
      if (oit == db_.operators().end())
        return fail("42883", "operator does not exist: " + std::string(n.name));
      auto fit = db_.functions().find(oit->second.procedure);
      if (fit == db_.functions().end())
        return fail("42883",
                    "operator procedure missing: " + oit->second.procedure);
      const Datum* args[] = {&l, &r};
      return call_function(fit->second, args, 2, out);
    }
  }
}

bool Evaluator::call(const Node& n, const Datum* const* args, size_t count,
                     Datum& out) {
  auto fit = db_.functions().find(n.name);
  if (fit != db_.functions().end())
    return call_function(fit->second, args, count, out);
  if (n.builtin == kNoBuiltin)
    return fail("42883", "unknown function: " + std::string(n.name));
  return builtin(kBuiltins[n.builtin], n.name, args, count, out);
}

bool Evaluator::builtin(const BuiltinDef& def, std::string_view name,
                        const Datum* const* args, size_t count, Datum& out) {
  if (count < def.min_args ||
      (def.max_args != kVariadic && count > def.max_args))
    return fail("42883", strformat("function %.*s(%zu arguments) does not exist",
                                   static_cast<int>(name.size()), name.data(),
                                   count));
  out = Datum();
  for (size_t i = 0; def.strict && i < count; ++i)
    if (args[i]->is_null()) return true;
  Datum read[3];
  const Datum* v[3];
  for (size_t i = 0; i < count && i < 3; ++i) {
    v[i] = read_as(def.kinds[i], *args[i], read[i], error_);
    if (!v[i]) return false;
  }
  const BuiltinArgs a{count <= 3 ? v : args, count, db_, user_};
  out = def.body(a);
  if (!a.raised) return true;
  const BuiltinDef::Error& e = def.errors[a.raised - 1];
  return fail(e.sqlstate, e.message);
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
