// Evaluation of bound expression programs for the sqldb executor
// (private to sqldb).
//
// An expression is the one program of Nodes the parser emitted (ast.h),
// with its operators, builtins and literals already resolved. Binding
// resolves the rest in place, once per statement, against the FROM
// entries the expression can see: a column reference becomes (FROM level,
// column ordinal). Evaluation then reads row values in place through the
// scan's row pointers, with no per-row scope, name lookup or value copy.
// A program is evaluated where it lives: a statement's in its Script's
// arena, a row-level policy's or function body's in its catalog entry,
// which owns its own copy and is bound once, when it is created.
//
// Binding never fails. A reference that names no column, or one that is
// ambiguous, binds to a node that raises 42703 / 42702 when a row actually
// evaluates it, so a query over an empty table, or a branch that is never
// taken, reports no error. User-defined functions and custom operators are
// looked up in the catalog at call time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
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
  std::string_view alias;
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

/// One SQL builtin function's or operator's contract, declared once. The
/// evaluator checks the arity (42883), gives NULL when a strict builtin has
/// a NULL argument and reads each argument as its kind (a variadic
/// builtin's as they are); the body then only computes the value, or
/// raises one of `errors`.
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

/// Every builtin function and operator, in one table.
std::span<const BuiltinDef> builtins();
/// The builtins() index of the builtin called `name`, or kNoBuiltin.
uint8_t builtin_of(std::string_view name);
/// True when the builtin name `name` is an operator: a symbol, or the NOT
/// keyword, spelled before its one operand and between its two. Any other
/// name is a function's, called as `name(args)`.
bool is_operator_name(std::string_view name);

/// A catalog entry's own copy of an expression: `sql` parsed and bound
/// against `scope` (a policy's table, or none for a function body).
Result<Script> parse_bound(std::string_view sql,
                           std::span<const ScopeLevel> scope);

/// The evaluation state of one statement. Evaluation results point either
/// into a row, at a literal of the program, or at the caller's `tmp`; they
/// are valid until the next evaluation. On error the result is null and
/// error() says why.
class Evaluator {
 public:
  /// `notices` receives RAISE NOTICE output; null discards it.
  Evaluator(const Database& db, const std::string& user,
            std::vector<std::string>* notices)
      : db_(db), user_(user), notices_(notices) {}
  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  /// Binds the column references of `e` in place against `scope` (FROM
  /// order), replacing any earlier binding. Must not be called while `e`
  /// is being evaluated.
  static const Node* bind(Node& e, std::span<const ScopeLevel> scope);

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
  std::optional<JoinKey> join_key(const Node* on, uint32_t level) const;

  /// Evaluates `root` with FROM level k's current row at rows[k].
  const Datum* eval(const Node* root, const Row* const* rows, Datum& tmp);
  /// Binds `e` with no FROM row in scope and evaluates it (INSERT values,
  /// the planner probe's constant side).
  const Datum* eval_constant(Node& e, Datum& tmp);
  /// Evaluates a HAVING or select-list root of an aggregate query for one
  /// group, as eval() evaluates a row: aggregates run over the members,
  /// every other leaf reads the first member's rows, and AND, OR, CASE and
  /// IN evaluate only the operands they need. An empty group has no row in
  /// scope, so `root` is first bound to none, as eval_constant binds.
  const Datum* eval_group(Node& root, const GroupRows& group, Datum& tmp);
  /// Row-level security: sets `visible` when any policy of `t` that
  /// applies to this user admits `row`, a row of `t`. Policy evaluation
  /// emits no notices. False on error.
  bool row_visible(const TableData& t, const Row& row, bool& visible);
  /// Calls a user-defined function on evaluated arguments.
  bool call_function(const FunctionDef& fn, const Datum* const* args,
                     size_t count, Datum& out);

  const SqlError& error() const { return error_; }
  void clear_error() { error_ = SqlError{}; }

 private:
  const Datum* ev(const Node& n, Datum& tmp);
  const Datum* ev_node(const Node& n, Datum& tmp);
  bool builtin(const BuiltinDef& def, std::string_view name, const Datum** v,
               Datum* read, size_t count, Datum& out);
  bool aggregate(const Node& n, const GroupRows& g, Datum& out);
  const Datum* column_without_row(const Node& n, Datum& tmp);
  const Datum* fail(std::string sqlstate, std::string message);

  const Database& db_;
  const std::string& user_;
  std::vector<std::string>* notices_;
  // Evaluation state: the current FROM rows, the group eval_group
  // evaluates, the current function's arguments, and the function call
  // depth.
  const Row* const* rows_ = nullptr;
  const GroupRows* group_ = nullptr;
  const std::vector<Datum>* params_ = nullptr;
  int depth_ = 0;
  SqlError error_;
};

}  // namespace rddr::sqldb
