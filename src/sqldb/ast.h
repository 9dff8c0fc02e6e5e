// Parsed SQL for the sqldb subset.
//
// The subset is driven by what the paper's evaluation needs: the TPC-H-lite
// and pgbench-lite workloads (SELECT with joins, aggregates, GROUP BY,
// ORDER BY, LIMIT; INSERT/UPDATE/DELETE), plus the exploit surface —
// CREATE FUNCTION (plpgsql RAISE NOTICE bodies), CREATE OPERATOR with a
// `restrict` estimator, row-level security, GRANT, SET, and EXPLAIN.
//
// Each expression has one representation: the program of `Node`s that the
// parser emits, with operators, builtins and literals resolved, and that
// `Evaluator::bind` (eval.h) completes in place by resolving its columns.
// A `Script` owns a parse: the normalized text its names and literals view
// and the arena its nodes, statements and lists live in. Lifetime rule: a
// node and every name it views live exactly as long as their `Script`.
#pragma once

#include <cstdint>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "sqldb/lexer.h"
#include "sqldb/value.h"

namespace rddr::sqldb {

/// A bump allocator that frees its memory all at once when it dies. It
/// never destroys what it holds, so it holds only objects that own
/// nothing outside it. Moving it keeps every allocation where it is.
class Arena {
 public:
  /// `first_block` sizes the first heap block; later ones double.
  explicit Arena(size_t first_block) : next_(first_block) {}
  Arena(Arena&& other) noexcept;
  Arena& operator=(Arena&& other) noexcept;
  ~Arena();

  void* allocate(size_t bytes, size_t align);
  /// Grows the most recent allocation, `p` of `bytes`, by `more` bytes
  /// where it is, when its block has the room; false otherwise.
  bool extend(const void* p, size_t bytes, size_t more) {
    if (static_cast<const char*>(p) + bytes != cur_ ||
        static_cast<size_t>(end_ - cur_) < more)
      return false;
    cur_ += more;
    return true;
  }
  /// `count` value-initialized Ts.
  template <typename T>
  T* make(size_t count = 1) {
    T* p = static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    for (size_t i = 0; i < count; ++i) new (p + i) T();
    return p;
  }
  /// A copy of `s` in the arena.
  std::string_view copy(std::string_view s);

 private:
  struct Block {
    Block* prev;
  };
  Block* head_ = nullptr;
  char* cur_ = nullptr;
  char* end_ = nullptr;
  size_t next_;
};

/// A growable array in an arena. Growing extends it in place when it is
/// the arena's latest allocation and copies it to a larger slice
/// otherwise (the old one goes with the arena), so it holds only
/// trivially copyable values.
template <typename T>
class List {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  void push_back(Arena& arena, const T& v) {
    if (size_ == cap_) reserve(arena, cap_ ? 2 * cap_ : 2);
    data_[size_++] = v;
  }
  void reserve(Arena& arena, size_t cap) {
    if (cap <= cap_) return;
    const size_t more = (cap - cap_) * sizeof(T);
    if (data_ && arena.extend(data_, cap_ * sizeof(T), more)) {
      cap_ = static_cast<uint32_t>(cap);
      return;
    }
    T* bigger = static_cast<T*>(arena.allocate(cap * sizeof(T), alignof(T)));
    if (size_) std::memcpy(bigger, data_, size_ * sizeof(T));
    data_ = bigger;
    cap_ = static_cast<uint32_t>(cap);
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](size_t i) const { return data_[i]; }
  T* begin() const { return data_; }
  T* end() const { return data_ + size_; }

 private:
  T* data_ = nullptr;
  uint32_t size_ = 0, cap_ = 0;
};

enum class Op : uint8_t {
  kLiteral,
  kColumn,      // bound: FROM level + column ordinal
  kBadColumn,   // unbound, or names no column (42703) or several (42702)
  kCurrentUser, // bare current_user that names no column
  kParam,       // $n (function bodies)
  kAnd, kOr,
  kOperator,    // a builtin operator: NOT, -, +, =, || ...
  kCustomOp,    // resolved through the operator catalog at call time
  kCall,        // user-defined function first, else the builtin
  kAggregate,   // COUNT/SUM/AVG/MIN/MAX (no operand for COUNT(*))
  kIsNull, kLike, kBetween, kInList, kCase,
};

inline constexpr uint8_t kNoBuiltin = UINT8_MAX;

/// One expression node. Its operands are `first` and the nodes chained
/// from it through `next`: CASE's are [when1, then1, ..., else?], IN's the
/// tested value and then the list.
struct Node {
  Op op = Op::kLiteral;
  uint8_t builtin = kNoBuiltin;  // kCall, kOperator: index into builtins()
  bool negated = false;    // IS NOT NULL / NOT LIKE / NOT IN / NOT BETWEEN
  bool star = false;       // COUNT(*)
  bool distinct = false;   // COUNT(DISTINCT x)
  bool has_else = false;   // kCase
  bool ambiguous = false;  // kBadColumn: 42702
  uint32_t n_kids = 0;
  uint32_t level = 0;   // kColumn: FROM level
  uint32_t column = 0;  // kColumn: column ordinal; kParam: n of $n
  Node* first = nullptr;
  Node* next = nullptr;
  std::string_view name;   // column, function, operator symbol or "not"
  std::string_view table;  // column qualifier, may be empty
  Datum literal;           // kLiteral; text views the statement's text

  const Node& kid(size_t i) const {
    const Node* k = first;
    while (i--) k = k->next;
    return *k;
  }
};

inline bool is_column_ref(Op op) {
  return op == Op::kColumn || op == Op::kBadColumn || op == Op::kCurrentUser;
}
/// AND, OR, or an operator between two operands.
inline bool is_infix(const Node& n) {
  return n.op >= Op::kAnd && n.op <= Op::kCustomOp && n.n_kids == 2;
}
/// The builtin operator `symbol` applied to `arity` operands.
inline bool is_operator(const Node& n, std::string_view symbol,
                        uint32_t arity = 2) {
  return n.op == Op::kOperator && n.n_kids == arity && n.name == symbol;
}

/// The expression as SQL that parses back to the same program (EXPLAIN
/// output, catalog copies and snapshots).
std::string to_sql(const Node& n);

struct ColumnDef {
  std::string_view name;
  Type type = Type::kText;
};

struct OrderItem {
  Node* expr = nullptr;
  bool descending = false;
};

struct SelectItem {
  Node* expr = nullptr;  // null for '*'
  std::string_view alias;
  bool star = false;
};

struct TableRef {
  std::string_view table;
  std::string_view alias;  // the table name when none is given
  /// Join condition with the *previous* table in the FROM list; null for
  /// the first table or comma-joins (cross product + WHERE).
  Node* join_on = nullptr;
};

struct SelectStmt {
  List<SelectItem> items;
  List<TableRef> from;  // empty = SELECT <exprs> without FROM
  Node* where = nullptr;
  List<Node*> group_by;
  Node* having = nullptr;
  List<OrderItem> order_by;
  std::optional<int64_t> limit;
};

struct InsertStmt {
  std::string_view table;
  List<std::string_view> columns;  // empty = schema order
  List<List<Node*>> rows;          // literal expressions
};

struct SetClause {
  std::string_view column;
  Node* value;
};

struct UpdateStmt {
  std::string_view table;
  List<SetClause> sets;
  Node* where = nullptr;
};

struct DeleteStmt {
  std::string_view table;
  Node* where = nullptr;
};

struct CreateTableStmt {
  std::string_view table;
  List<ColumnDef> columns;
};

struct DropTableStmt {
  std::string_view table;
  bool if_exists = false;
};

/// CREATE FUNCTION with a recognised plpgsql body of the shape the paper's
/// exploits use:  BEGIN [RAISE NOTICE 'fmt', $1, ...;] RETURN expr; END
struct CreateFunctionStmt {
  std::string_view name;
  List<Type> arg_types;
  Type return_type = Type::kBool;
  std::optional<std::string_view> notice_format;  // '%' placeholders
  List<Node*> notice_args;                        // over $n params
  Node* return_expr = nullptr;                    // over $n params
  std::string_view language;                      // "plpgsql", "sql", ...
};

/// CREATE OPERATOR <symbol> (procedure=..., leftarg=..., rightarg=...,
/// restrict=<estimator>).
struct CreateOperatorStmt {
  std::string_view symbol;
  std::string_view procedure;
  Type left_type = Type::kInt;
  Type right_type = Type::kInt;
  std::string_view restrict_estimator;  // empty = none
};

struct SetStmt {
  std::string_view name;
  std::string_view value;
};

struct GrantStmt {
  std::string_view privilege;  // "SELECT", ...
  std::string_view table;
  std::string_view grantee;
};

struct AlterTableRlsStmt {
  std::string_view table;
  bool enable = true;
};

/// CREATE POLICY name ON table [TO role] USING (expr).
struct CreatePolicyStmt {
  std::string_view name;
  std::string_view table;
  std::string_view role;  // empty = all roles
  Node* using_expr = nullptr;
};

struct Statement {
  enum class Kind {
    kSelect, kInsert, kUpdate, kDelete, kCreateTable, kDropTable,
    kCreateFunction, kCreateOperator, kSet, kGrant, kAlterTableRls,
    kCreatePolicy, kExplain, kTxn,
  };
  Kind kind;
  SelectStmt* select = nullptr;  // kSelect and kExplain
  InsertStmt* insert = nullptr;
  UpdateStmt* update = nullptr;
  DeleteStmt* del = nullptr;
  CreateTableStmt* create_table = nullptr;
  DropTableStmt* drop_table = nullptr;
  CreateFunctionStmt* create_function = nullptr;
  CreateOperatorStmt* create_operator = nullptr;
  SetStmt* set = nullptr;
  GrantStmt* grant = nullptr;
  AlterTableRlsStmt* alter_rls = nullptr;
  CreatePolicyStmt* create_policy = nullptr;
  std::string_view txn_keyword;  // kTxn: "begin", "commit", ...
};

/// The parse of one SQL text: its statements (parse_sql) or its one
/// expression (parse_expression), with the normalized text and the arena
/// they live in. Move-only; moving keeps every node and view valid.
class Script {
 public:
  size_t size() const { return statements_.size(); }
  Statement& operator[](size_t i) const { return statements_[i]; }
  Statement* begin() const { return statements_.begin(); }
  Statement* end() const { return statements_.end(); }
  /// parse_expression's expression.
  Node& expression() const { return *expression_; }
  /// Statement-lifetime memory: execution keeps its working arrays here.
  Arena& arena() { return arena_; }

 private:
  friend class Parser;
  explicit Script(TokenList text);

  TokenList text_;
  std::vector<TokenList> bodies_;  // CREATE FUNCTION bodies' texts
  Arena arena_;
  List<Statement> statements_;
  Node* expression_ = nullptr;
};

}  // namespace rddr::sqldb
