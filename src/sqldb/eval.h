// Bound expression evaluation for the sqldb executor (private to sqldb).
//
// Each statement binds its expressions once, against the FROM entries
// they can see: a column reference becomes (FROM level, column ordinal),
// an operator symbol becomes an enum, a builtin name its builtins()
// entry, and a literal stays where the parser put it. Evaluation then
// reads row values in place through the scan's row pointers, with no
// per-row scope, name lookup or value copy.
//
// Binding never fails. A reference that names no column, or one that is
// ambiguous, binds to a node that raises 42703 / 42702 when a row actually
// evaluates it, so a query over an empty table, or a branch that is never
// taken, reports no error. User-defined functions and custom operators are
// still looked up in the catalog at call time; a function body is bound on
// its first call in the statement, with its parameters as slots.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sqldb/engine.h"

namespace rddr::sqldb {

struct SqlError {
  std::string sqlstate;
  std::string message;
};

/// Truthiness of a WHERE/HAVING/JOIN ON result (NULL and non-bool are
/// false).
inline bool datum_is_true(const Datum& d) {
  return d.type() == Type::kBool && d.as_bool();
}

/// One FROM entry as expressions see it: qualified references match
/// `alias`, and columns resolve against `table`.
struct ScopeLevel {
  const std::string* alias;
  const TableData* table;
};

/// The matched rows of one aggregate group: the group's members are match
/// numbers into `matches`, which holds `width` row pointers per match.
struct GroupRows {
  const Row* const* matches = nullptr;
  size_t width = 0;
  const size_t* members = nullptr;
  size_t size = 0;

  const Row* const* member(size_t i) const {
    return width ? matches + members[i] * width : nullptr;
  }
};

/// Converts `d` in place for a column of type `target`. Text that an int
/// or float column cannot parse is refused with 22P02, and a float past
/// int8 with 22003, as in Postgres: false, with `err` set.
bool coerce(Datum& d, Type target, SqlError& err);

/// What a builtin's argument is read as, as coerce() reads a value for a
/// column: kAny as it is, kText as text, kNumber as an int or float (text
/// as a float, a bool as an int), and kInt8 as an int.
enum class ArgKind : uint8_t { kAny, kText, kNumber, kInt8 };

/// A builtin's arguments once read as their kinds, and the session state
/// that version() and current_user() read.
struct BuiltinArgs {
  const Datum* const* v;
  size_t count;
  const Database& db;
  const std::string& user;
  mutable int raised = 0;  // k + 1 once errors[k] is raised

  Datum raise(int k) const {
    raised = k + 1;
    return Datum();
  }
};

/// One SQL builtin's contract, declared once. The evaluator checks the
/// arity (42883), gives NULL when a strict builtin has a NULL argument and
/// reads each argument as its kind (a variadic builtin's as they are); the
/// body then only computes the value, or raises one of `errors`.
struct BuiltinDef {
  /// An error the body raises, with an argument list that raises it.
  struct Error { const char *sqlstate, *message, *example; };
  static constexpr uint8_t kVariadic = UINT8_MAX;  // max_args: no limit
  std::string_view names[2];  // the second is an alias, or empty
  uint8_t min_args, max_args;
  bool strict;
  ArgKind kinds[3];
  Error errors[4];
  Datum (*body)(const BuiltinArgs& a);
};

/// Every builtin function, in one table.
std::span<const BuiltinDef> builtins();

/// Root of a bound expression; kNoExpr marks an absent one.
using BoundExpr = uint32_t;
inline constexpr BoundExpr kNoExpr = UINT32_MAX;

/// The bound expressions of one statement plus its evaluation state.
/// Evaluation results point either into a row, into the statement's
/// literals, or at the caller's `tmp`; they are valid until the next
/// evaluation. On error the result is null and error() says why.
class Evaluator {
 public:
  /// `notices` receives RAISE NOTICE output; null discards it.
  Evaluator(const Database& db, const std::string& user,
            std::vector<std::string>* notices);
  ~Evaluator();
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Binds `e` against `scope` (FROM order). Must not be called while an
  /// evaluation is in progress.
  BoundExpr bind(const Expr& e, std::span<const ScopeLevel> scope);
  /// Binds the policies of `t` that apply to this user, in catalog order.
  std::vector<BoundExpr> bind_policies(const TableData& t);

  /// A conjunct `a = b` of a JOIN ON whose sides are plain column
  /// references: one to the join's own FROM level, one to an earlier level.
  struct JoinKey {
    uint32_t column;  // in the join level's own table
    uint32_t outer_level;
    uint32_t outer_column;
  };
  /// The first such conjunct of the AND-tree of `on`, bound for FROM level
  /// `level`. None when there is none, or when `on` calls a user-defined
  /// function or custom operator anywhere: each may emit notices or reach
  /// the catalog on every row it sees.
  std::optional<JoinKey> join_key(BoundExpr on, uint32_t level) const;

  /// Evaluates `root` with FROM level k's current row at rows[k].
  const Datum* eval(BoundExpr root, const Row* const* rows, Datum& tmp);
  /// Evaluates `root` once with no FROM row in scope (INSERT values, the
  /// planner probe's constant side) and drops its binding.
  const Datum* eval_constant(const Expr& e, Datum& tmp);
  /// Evaluates a HAVING or select-list root of an aggregate query for one
  /// group: aggregates run over the members, every other leaf reads the
  /// first member's rows (none for an empty group), and inner nodes
  /// evaluate all their operands before applying the operator.
  const Datum* eval_group(BoundExpr root, const GroupRows& group, Datum& tmp);
  /// Row-level security: sets `visible` when any of `policies` admits
  /// `row`. Policy evaluation emits no notices. False on error.
  bool row_visible(const std::vector<BoundExpr>& policies, const Row& row,
                   bool& visible);
  /// Calls a user-defined function on evaluated arguments.
  bool call_function(const FunctionDef& fn, const Datum* const* args,
                     size_t count, Datum& out);

  const SqlError& error() const { return error_; }
  void clear_error() { error_ = SqlError{}; }

 private:
  struct Node;
  struct FunctionBody;

  void bind_into(std::vector<Node>& nodes, uint32_t at, const Expr& e,
                 std::span<const ScopeLevel> scope);
  const FunctionBody& function_body(const FunctionDef& fn);

  const Datum* ev(const Node* prog, const Node& n, Datum& tmp);
  const Datum* ev_node(const Node* prog, const Node& n, Datum& tmp);
  const Datum* ev_group(const Node* prog, const Node& n, const GroupRows& g,
                        Datum& tmp);
  bool apply(const Node& n, const Datum* const* v, size_t count, Datum& out);
  bool binary(const Node& n, const Datum& l, const Datum& r, Datum& out);
  bool call(const Node& n, const Datum* const* args, size_t count, Datum& out);
  bool builtin(const BuiltinDef& def, std::string_view name,
               const Datum* const* args, size_t count, Datum& out);
  bool aggregate(const Node* prog, const Node& n, const GroupRows& g,
                 Datum& out);
  const Datum* column_without_row(const Node& n, Datum& tmp);
  const Datum* fail(std::string sqlstate, std::string message);

  const Database& db_;
  const std::string& user_;
  std::vector<std::string>* notices_;
  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<FunctionBody>> functions_;
  // Evaluation state: the current FROM rows, the current function's
  // arguments, and the function call depth.
  const Row* const* rows_ = nullptr;
  const std::vector<Datum>* params_ = nullptr;
  int depth_ = 0;
  SqlError error_;
};

}  // namespace rddr::sqldb
