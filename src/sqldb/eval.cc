#include "sqldb/eval.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>

#include "common/strutil.h"

namespace rddr::sqldb {

namespace {

constexpr int kMaxFunctionDepth = 16;

enum class Op : uint8_t {
  kLiteral,
  kColumn,      // FROM level + column ordinal
  kBadColumn,   // unresolvable: 42703, or 42702 when ambiguous
  kCurrentUser, // bare current_user that names no column
  kParam,
  kNeg, kNot,
  kAnd, kOr,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kConcat, kAdd, kSub, kMul, kDiv, kMod,
  kCustomOp,    // resolved through the operator catalog at call time
  kCall,        // user-defined function first, else the builtin
  kAggregate,
  kIsNull, kLike, kBetween, kInList, kCase,
};

enum class Builtin : uint8_t {
  kUnknown, kLower, kUpper, kLength, kAbs, kSubstr, kCoalesce, kConcat,
  kRound, kFloor, kCeil, kMod, kPower, kVersion, kCurrentUser,
};

Op binary_op(const std::string& op) {
  static const std::pair<std::string_view, Op> kOps[] = {
      {"and", Op::kAnd}, {"or", Op::kOr},   {"=", Op::kEq},   {"<>", Op::kNe},
      {"!=", Op::kNe},   {"<", Op::kLt},    {"<=", Op::kLe},  {">", Op::kGt},
      {">=", Op::kGe},   {"||", Op::kConcat}, {"+", Op::kAdd}, {"-", Op::kSub},
      {"*", Op::kMul},   {"/", Op::kDiv},   {"%", Op::kMod},
  };
  for (const auto& [symbol, code] : kOps)
    if (op == symbol) return code;
  return Op::kCustomOp;
}

Builtin builtin_of(const std::string& name) {
  static const std::pair<std::string_view, Builtin> kNames[] = {
      {"lower", Builtin::kLower},       {"upper", Builtin::kUpper},
      {"length", Builtin::kLength},     {"abs", Builtin::kAbs},
      {"substr", Builtin::kSubstr},     {"substring", Builtin::kSubstr},
      {"coalesce", Builtin::kCoalesce}, {"concat", Builtin::kConcat},
      {"round", Builtin::kRound},       {"floor", Builtin::kFloor},
      {"ceil", Builtin::kCeil},         {"mod", Builtin::kMod},
      {"power", Builtin::kPower},       {"version", Builtin::kVersion},
      {"current_user", Builtin::kCurrentUser},
  };
  for (const auto& [n, code] : kNames)
    if (name == n) return code;
  return Builtin::kUnknown;
}

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

/// Text view of a datum without copying text values.
struct TextOf {
  explicit TextOf(const Datum& d) {
    if (d.type() == Type::kText) {
      view = d.as_text();
    } else {
      owned = d.to_text();
      view = owned;
    }
  }
  std::string owned;
  std::string_view view;
};

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

}  // namespace

struct Evaluator::Node {
  Op op = Op::kLiteral;
  Builtin builtin = Builtin::kUnknown;  // kCall
  bool ambiguous = false;               // kBadColumn
  uint32_t level = 0;                   // kColumn: FROM level
  uint32_t column = 0;                  // kColumn: column ordinal
  uint32_t first_kid = 0;  // operands are nodes [first_kid, first_kid + n_kids)
  uint32_t n_kids = 0;
  const Expr* src = nullptr;  // literal value, names and flags

  const Node& kid(const Node* prog, size_t i) const {
    return prog[first_kid + i];
  }
};

struct Evaluator::FunctionBody {
  const FunctionDef* def = nullptr;
  std::vector<Node> nodes;
  std::vector<uint32_t> notice_args;
  uint32_t return_expr = kNoExpr;
};

Evaluator::Evaluator(const Database& db, const std::string& user,
                     std::vector<std::string>* notices)
    : db_(db), user_(user), notices_(notices) {
  nodes_.reserve(16);
}

Evaluator::~Evaluator() = default;

// ---------- binding ----------

BoundExpr Evaluator::bind(const Expr& e, std::span<const ScopeLevel> scope) {
  auto at = static_cast<uint32_t>(nodes_.size());
  nodes_.emplace_back();
  bind_into(nodes_, at, e, scope);
  return at;
}

std::vector<BoundExpr> Evaluator::bind_policies(const TableData& t) {
  const ScopeLevel level{&t.name, &t};
  std::vector<BoundExpr> roots;
  for (const auto& pol : t.policies)
    if (pol.role.empty() || pol.role == user_)
      roots.push_back(bind(*pol.using_expr, {&level, 1}));
  return roots;
}

void Evaluator::bind_into(std::vector<Node>& nodes, uint32_t at, const Expr& e,
                          std::span<const ScopeLevel> scope) {
  Node n;
  n.src = &e;
  switch (e.kind) {
    case ExprKind::kLiteral: n.op = Op::kLiteral; break;
    case ExprKind::kParam: n.op = Op::kParam; break;
    case ExprKind::kColumnRef: {
      // The scope is the same for every row, so resolution is too; only
      // its errors wait for a row to be evaluated.
      bool found = false;
      for (size_t l = 0; l < scope.size(); ++l) {
        if (!e.table.empty() && *scope[l].alias != e.table) continue;
        int idx = scope[l].table->find_column(e.column);
        if (idx < 0) continue;
        if (found) {
          n.ambiguous = true;
          break;
        }
        found = true;
        n.level = static_cast<uint32_t>(l);
        n.column = static_cast<uint32_t>(idx);
        if (!e.table.empty()) break;
      }
      if (found && !n.ambiguous) {
        n.op = Op::kColumn;
      } else if (!found && e.table.empty() && e.column == "current_user") {
        // Postgres exposes current_user as a bare keyword, not a call.
        n.op = Op::kCurrentUser;
      } else {
        n.op = Op::kBadColumn;
      }
      break;
    }
    case ExprKind::kUnary: n.op = e.op == "-" ? Op::kNeg : Op::kNot; break;
    case ExprKind::kBinary: n.op = binary_op(e.op); break;
    case ExprKind::kFuncCall:
      n.op = Op::kCall;
      n.builtin = builtin_of(e.func_name);
      break;
    case ExprKind::kAggregate: n.op = Op::kAggregate; break;
    case ExprKind::kIsNull: n.op = Op::kIsNull; break;
    case ExprKind::kLike: n.op = Op::kLike; break;
    case ExprKind::kBetween: n.op = Op::kBetween; break;
    case ExprKind::kInList: n.op = Op::kInList; break;
    case ExprKind::kCase: n.op = Op::kCase; break;
  }
  n.n_kids = static_cast<uint32_t>(e.args.size());
  n.first_kid = static_cast<uint32_t>(nodes.size());
  nodes.resize(nodes.size() + e.args.size());
  for (size_t i = 0; i < e.args.size(); ++i)
    bind_into(nodes, n.first_kid + static_cast<uint32_t>(i), *e.args[i], scope);
  nodes[at] = n;
}

std::optional<Evaluator::JoinKey> Evaluator::join_key(BoundExpr on,
                                                     uint32_t level) const {
  const Node* prog = nodes_.data();
  auto calls_catalog = [&](auto& self, const Node& n) -> bool {
    if (n.op == Op::kCustomOp ||
        (n.op == Op::kCall && db_.functions().count(n.src->func_name)))
      return true;
    for (size_t i = 0; i < n.n_kids; ++i)
      if (self(self, n.kid(prog, i))) return true;
    return false;
  };
  if (calls_catalog(calls_catalog, prog[on])) return std::nullopt;
  auto find = [&](auto& self, const Node& n) -> std::optional<JoinKey> {
    if (n.op == Op::kAnd) {
      if (auto key = self(self, n.kid(prog, 0))) return key;
      return self(self, n.kid(prog, 1));
    }
    if (n.op != Op::kEq) return std::nullopt;
    const Node& a = n.kid(prog, 0);
    const Node& b = n.kid(prog, 1);
    if (a.op != Op::kColumn || b.op != Op::kColumn) return std::nullopt;
    if (a.level == level && b.level < level)
      return JoinKey{a.column, b.level, b.column};
    if (b.level == level && a.level < level)
      return JoinKey{b.column, a.level, a.column};
    return std::nullopt;
  };
  return find(find, prog[on]);
}

const Evaluator::FunctionBody& Evaluator::function_body(const FunctionDef& fn) {
  for (const auto& body : functions_)
    if (body->def == &fn) return *body;
  // Bodies see no FROM row: their column references can only be the
  // current_user keyword or a 42703.
  auto body = std::make_unique<FunctionBody>();
  body->def = &fn;
  auto bind_root = [&](const Expr& e) {
    auto at = static_cast<uint32_t>(body->nodes.size());
    body->nodes.emplace_back();
    bind_into(body->nodes, at, e, {});
    return at;
  };
  for (const auto& a : fn.notice_args) body->notice_args.push_back(bind_root(*a));
  if (fn.return_expr) body->return_expr = bind_root(*fn.return_expr);
  functions_.push_back(std::move(body));
  return *functions_.back();
}

// ---------- evaluation entry points ----------

const Datum* Evaluator::eval(BoundExpr root, const Row* const* rows,
                             Datum& tmp) {
  rows_ = rows;
  return ev(nodes_.data(), nodes_[root], tmp);
}

const Datum* Evaluator::eval_constant(const Expr& e, Datum& tmp) {
  // The result points at `tmp` or into `e` itself, never into the nodes.
  const size_t mark = nodes_.size();
  const Datum* v = eval(bind(e, {}), nullptr, tmp);
  nodes_.resize(mark);
  return v;
}

const Datum* Evaluator::eval_group(BoundExpr root, const GroupRows& group,
                                   Datum& tmp) {
  return ev_group(nodes_.data(), nodes_[root], group, tmp);
}

bool Evaluator::row_visible(const std::vector<BoundExpr>& policies,
                            const Row& row, bool& visible) {
  auto* notices = notices_;
  notices_ = nullptr;
  const Row* scope = &row;
  visible = false;
  bool ok = true;
  for (BoundExpr root : policies) {
    Datum tmp;
    const Datum* v = eval(root, &scope, tmp);
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
  const FunctionBody& body = function_body(fn);
  const Node* prog = body.nodes.data();
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
    for (uint32_t root : body.notice_args) {
      Datum tmp;
      const Datum* v = ev(prog, prog[root], tmp);
      if (!v) {
        ok = false;
        break;
      }
      values.push_back(*v);
    }
    if (ok) notices_->push_back(expand_notice(*fn.notice_format, values));
  }
  if (ok) {
    if (body.return_expr == kNoExpr) {
      out = Datum();
    } else {
      Datum tmp;
      const Datum* v = ev(prog, prog[body.return_expr], tmp);
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
inline const Datum* Evaluator::ev(const Node* prog, const Node& n,
                                  Datum& tmp) {
  if (n.op == Op::kColumn) return &(*rows_[n.level])[n.column];
  if (n.op == Op::kLiteral) return &n.src->literal;
  return ev_node(prog, n, tmp);
}

const Datum* Evaluator::ev_node(const Node* prog, const Node& n, Datum& tmp) {
  switch (n.op) {
    case Op::kLiteral:
    case Op::kColumn:
      return ev(prog, n, tmp);
    case Op::kBadColumn:
      if (n.ambiguous)
        return fail("42702", "ambiguous column reference: " + n.src->column);
      return column_without_row(n, tmp);
    case Op::kCurrentUser:
      tmp = Datum::text(user_);
      return &tmp;
    case Op::kParam: {
      int i = n.src->param_index;
      if (!params_ || i < 1 || static_cast<size_t>(i) > params_->size())
        return fail("42P02", strformat("parameter $%d out of range", i));
      return &(*params_)[static_cast<size_t>(i - 1)];
    }
    case Op::kAnd:
    case Op::kOr: {
      // Three-valued short-circuit: the right side is evaluated only
      // when the left one does not decide.
      bool is_and = n.op == Op::kAnd;
      Datum lt;
      const Datum* l = ev(prog, n.kid(prog, 0), lt);
      if (!l) return nullptr;
      bool l_true = datum_is_true(*l);
      if ((is_and && !l->is_null() && !l_true) || (!is_and && l_true)) {
        tmp = Datum::boolean(l_true);
        return &tmp;
      }
      Datum rt;
      const Datum* r = ev(prog, n.kid(prog, 1), rt);
      if (!r) return nullptr;
      tmp = logic(is_and, *l, *r);
      return &tmp;
    }
    case Op::kInList: {
      Datum vt;
      const Datum* v = ev(prog, n.kid(prog, 0), vt);
      if (!v) return nullptr;
      bool saw_null = v->is_null();
      for (size_t i = 1; i < n.n_kids; ++i) {
        Datum it;
        const Datum* item = ev(prog, n.kid(prog, i), it);
        if (!item) return nullptr;
        auto c = v->compare(*item);
        if (!c) {
          saw_null = true;
          continue;
        }
        if (*c == 0) {
          tmp = Datum::boolean(!n.src->negated);
          return &tmp;
        }
      }
      tmp = saw_null ? Datum() : Datum::boolean(n.src->negated);
      return &tmp;
    }
    case Op::kCase: {
      size_t pairs = (n.n_kids - (n.src->case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        Datum ct;
        const Datum* c = ev(prog, n.kid(prog, 2 * i), ct);
        if (!c) return nullptr;
        if (datum_is_true(*c)) return ev(prog, n.kid(prog, 2 * i + 1), tmp);
      }
      if (n.src->case_has_else) return ev(prog, n.kid(prog, n.n_kids - 1), tmp);
      tmp = Datum();
      return &tmp;
    }
    case Op::kAggregate:
      return fail("42803", "aggregate not allowed here: " + n.src->func_name);
    case Op::kEq: case Op::kNe: case Op::kLt: case Op::kLe: case Op::kGt:
    case Op::kGe: case Op::kConcat: case Op::kAdd: case Op::kSub:
    case Op::kMul: case Op::kDiv: case Op::kMod: case Op::kCustomOp: {
      Datum lt, rt;
      const Datum* l = ev(prog, n.kid(prog, 0), lt);
      if (!l) return nullptr;
      const Datum* r = ev(prog, n.kid(prog, 1), rt);
      if (!r) return nullptr;
      return binary(n, *l, *r, tmp) ? &tmp : nullptr;
    }
    case Op::kNeg: case Op::kNot: case Op::kCall: case Op::kIsNull:
    case Op::kLike: case Op::kBetween:
      break;
  }
  // Strict nodes: every operand, in order, then the operator.
  Operands ops(n.n_kids);
  for (size_t i = 0; i < n.n_kids; ++i) {
    const Datum* v = ev(prog, n.kid(prog, i), ops.tmp(i));
    if (!v) return nullptr;
    ops.set(i, v);
  }
  return apply(n, ops.values(), n.n_kids, tmp) ? &tmp : nullptr;
}

const Datum* Evaluator::ev_group(const Node* prog, const Node& n,
                                 const GroupRows& g, Datum& tmp) {
  if (n.op == Op::kAggregate)
    return aggregate(prog, n, g, tmp) ? &tmp : nullptr;
  if (n.n_kids == 0) {
    if (g.size == 0 && (n.op == Op::kColumn || n.op == Op::kBadColumn ||
                        n.op == Op::kCurrentUser))
      return column_without_row(n, tmp);
    rows_ = g.size ? g.member(0) : nullptr;
    return ev(prog, n, tmp);
  }
  // Every operand is evaluated (no short-circuit), then the operator is
  // applied to the values.
  Operands ops(n.n_kids);
  for (size_t i = 0; i < n.n_kids; ++i) {
    const Datum* v = ev_group(prog, n.kid(prog, i), g, ops.tmp(i));
    if (!v) return nullptr;
    ops.set(i, v);
  }
  return apply(n, ops.values(), n.n_kids, tmp) ? &tmp : nullptr;
}

/// A column reference evaluated with no row in scope: only the bare
/// current_user keyword has a value.
const Datum* Evaluator::column_without_row(const Node& n, Datum& tmp) {
  const Expr& e = *n.src;
  if (e.table.empty() && e.column == "current_user") {
    tmp = Datum::text(user_);
    return &tmp;
  }
  return fail("42703", "column does not exist: " +
                           (e.table.empty() ? e.column : e.table + "." + e.column));
}

bool Evaluator::apply(const Node& n, const Datum* const* v, size_t count,
                      Datum& out) {
  const Expr& e = *n.src;
  switch (n.op) {
    case Op::kNeg:
    case Op::kNot: {
      const Datum& d = *v[0];
      if (d.is_null()) {
        out = Datum();
      } else if (n.op == Op::kNeg) {
        if (d.type() != Type::kInt) {
          out = Datum::floating(-d.numeric());
        } else if (d.as_int() == INT64_MIN) {
          fail("22003", "bigint out of range");
          return false;
        } else {
          out = Datum::integer(-d.as_int());
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
      out = Datum::boolean(e.negated ? !isnull : isnull);
      return true;
    }
    case Op::kLike: {
      if (v[0]->is_null() || v[1]->is_null()) {
        out = Datum();
        return true;
      }
      bool m = like_match(TextOf(*v[0]).view, TextOf(*v[1]).view);
      out = Datum::boolean(e.negated ? !m : m);
      return true;
    }
    case Op::kBetween: {
      auto c1 = v[0]->compare(*v[1]);
      auto c2 = v[0]->compare(*v[2]);
      if (!c1 || !c2) {
        out = Datum();
      } else {
        bool in = *c1 >= 0 && *c2 <= 0;
        out = Datum::boolean(e.negated ? !in : in);
      }
      return true;
    }
    case Op::kInList:
      out = in_list(e.negated, *v[0], v + 1, count - 1);
      return true;
    case Op::kCase: {
      size_t pairs = (count - (e.case_has_else ? 1 : 0)) / 2;
      for (size_t i = 0; i < pairs; ++i) {
        if (datum_is_true(*v[2 * i])) {
          out = *v[2 * i + 1];
          return true;
        }
      }
      out = e.case_has_else ? *v[count - 1] : Datum();
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
    case Op::kAdd: case Op::kSub: case Op::kMul: case Op::kDiv:
    case Op::kMod: {
      if (l.is_null() || r.is_null()) {
        out = Datum();
        return true;
      }
      bool both_int = l.type() == Type::kInt && r.type() == Type::kInt;
      if (n.op == Op::kMod) {
        if (!both_int) return fail("42883", "operator %% requires integers");
        if (r.as_int() == 0) return fail("22012", "division by zero");
        // x % -1 is 0 for every x, INT64_MIN included (Postgres int8mod).
        out = Datum::integer(r.as_int() == -1 ? 0 : l.as_int() % r.as_int());
        return true;
      }
      if (both_int) {
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
      auto number = [&](const Datum& d, double& x) {
        if (d.type() != Type::kText) {
          x = d.numeric();
          return true;
        }
        auto v = parse_f64(d.as_text());
        if (!v) {
          fail("22P02", strformat("invalid input syntax for type double "
                                  "precision: \"%s\"",
                                  d.as_text().c_str()));
          return false;
        }
        x = *v;
        return true;
      };
      double a, b;
      if (!number(l, a) || !number(r, b)) return false;
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
      const std::string& op = n.src->op;
      auto oit = db_.operators().find(op);
      if (oit == db_.operators().end())
        return fail("42883", "operator does not exist: " + op);
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
  auto fit = db_.functions().find(n.src->func_name);
  if (fit != db_.functions().end())
    return call_function(fit->second, args, count, out);
  return builtin(n, args, count, out);
}

bool Evaluator::builtin(const Node& n, const Datum* const* args, size_t count,
                        Datum& out) {
  const std::string& name = n.src->func_name;
  const Datum* a0 = count > 0 ? args[0] : nullptr;
  switch (n.builtin) {
    case Builtin::kLower:
    case Builtin::kUpper:
      if (count != 1) break;
      if (a0->is_null()) {
        out = Datum();
      } else {
        out = Datum::text(n.builtin == Builtin::kLower ? to_lower(a0->to_text())
                                                       : to_upper(a0->to_text()));
      }
      return true;
    case Builtin::kLength:
      if (count != 1) break;
      out = a0->is_null()
                ? Datum()
                : Datum::integer(static_cast<int64_t>(TextOf(*a0).view.size()));
      return true;
    case Builtin::kAbs:
      if (count != 1) break;
      if (a0->is_null()) {
        out = Datum();
      } else if (a0->type() != Type::kInt) {
        out = Datum::floating(std::fabs(a0->numeric()));
      } else if (a0->as_int() == INT64_MIN) {
        fail("22003", "bigint out of range");
        return false;
      } else {
        out = Datum::integer(std::llabs(a0->as_int()));
      }
      return true;
    case Builtin::kSubstr: {
      if (count != 2 && count != 3) {
        fail("42883", "substr expects 2 or 3 arguments");
        return false;
      }
      if (a0->is_null()) {
        out = Datum();
        return true;
      }
      std::string s = a0->to_text();
      const auto size = static_cast<int64_t>(s.size());
      int64_t start = args[1]->is_null() ? 1 : args[1]->as_int();
      // Postgres's window: positions [start, start + len) clipped to
      // [1, size]. The 2-argument form runs to the end of the string.
      int64_t end = size + 1;
      if (count == 3 && !args[2]->is_null()) {
        int64_t len = args[2]->as_int();
        if (len < 0) {
          fail("22011", "negative substring length not allowed");
          return false;
        }
        if (start <= size + 1 - len) end = start + len;  // else past the end
      }
      int64_t begin = std::max<int64_t>(start, 1);
      out = Datum::text(begin < end ? s.substr(static_cast<size_t>(begin - 1),
                                               static_cast<size_t>(end - begin))
                                    : std::string());
      return true;
    }
    case Builtin::kCoalesce:
      out = Datum();
      for (size_t i = 0; i < count; ++i)
        if (!args[i]->is_null()) {
          out = *args[i];
          break;
        }
      return true;
    case Builtin::kConcat: {
      std::string s;
      for (size_t i = 0; i < count; ++i) s += TextOf(*args[i]).view;
      out = Datum::text(std::move(s));
      return true;
    }
    case Builtin::kRound: {
      if (count == 0 || count > 2) {
        fail("42883", "round arity");
        return false;
      }
      if (a0->is_null()) {
        out = Datum();
        return true;
      }
      double v = a0->numeric();
      int digits = count == 2 && !args[1]->is_null()
                       ? static_cast<int>(args[1]->as_int())
                       : 0;
      double scale = std::pow(10.0, digits);
      out = Datum::floating(std::round(v * scale) / scale);
      return true;
    }
    case Builtin::kFloor:
    case Builtin::kCeil:
      if (count != 1) break;
      if (a0->is_null()) out = Datum();
      else if (n.builtin == Builtin::kFloor) out = Datum::floating(std::floor(a0->numeric()));
      else out = Datum::floating(std::ceil(a0->numeric()));
      return true;
    case Builtin::kMod: {
      if (count != 2) break;
      if (a0->is_null() || args[1]->is_null()) {
        out = Datum();
        return true;
      }
      int64_t d = args[1]->as_int();
      if (d == 0) {
        fail("22012", "division by zero");
        return false;
      }
      out = Datum::integer(d == -1 ? 0 : a0->as_int() % d);  // as for %
      return true;
    }
    case Builtin::kPower:
      if (count != 2) break;
      out = a0->is_null() || args[1]->is_null()
                ? Datum()
                : Datum::floating(std::pow(a0->numeric(), args[1]->numeric()));
      return true;
    case Builtin::kVersion:
      if (count != 0) break;
      out = Datum::text(db_.info().version_banner);
      return true;
    case Builtin::kCurrentUser:
      if (count != 0) break;
      out = Datum::text(user_);
      return true;
    case Builtin::kUnknown:
      break;
  }
  fail("42883", "unknown function: " + name);
  return false;
}

bool Evaluator::aggregate(const Node* prog, const Node& n, const GroupRows& g,
                          Datum& out) {
  const Expr& e = *n.src;
  const std::string& fn = e.func_name;
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
    if (!e.star) {
      if (n.n_kids == 0) continue;  // no argument: nothing to aggregate
      rows_ = g.member(i);
      v = ev(prog, n.kid(prog, 0), tmp);
      if (!v) return false;
    }
    if (v->is_null()) continue;
    if (e.distinct) {
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
    fail("42883", "unknown aggregate: " + fn);
    return false;
  }
  return true;
}

}  // namespace rddr::sqldb
