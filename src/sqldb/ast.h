// SQL abstract syntax tree for the sqldb subset.
//
// The subset is driven by what the paper's evaluation needs: the TPC-H-lite
// and pgbench-lite workloads (SELECT with joins, aggregates, GROUP BY,
// ORDER BY, LIMIT; INSERT/UPDATE/DELETE), plus the exploit surface —
// CREATE FUNCTION (plpgsql RAISE NOTICE bodies), CREATE OPERATOR with a
// `restrict` estimator, row-level security, GRANT, SET, and EXPLAIN.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sqldb/value.h"

namespace rddr::sqldb {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  kLiteral,     // datum
  kColumnRef,   // [table.]column
  kParam,       // $n (function bodies)
  kUnary,       // op: "-" | "NOT"
  kBinary,      // op: arithmetic/comparison/logic/custom symbol
  kFuncCall,    // name(args) — builtin or user-defined
  kAggregate,   // COUNT/SUM/AVG/MIN/MAX (arg may be null for COUNT(*))
  kIsNull,      // arg IS [NOT] NULL (negated flag)
  kLike,        // arg LIKE pattern (negated flag)
  kBetween,     // arg BETWEEN lo AND hi (negated flag)
  kInList,      // arg IN (list) (negated flag)
  kCase,        // CASE WHEN cond THEN val ... [ELSE val] END
};

struct Expr {
  ExprKind kind;

  Datum literal;                      // kLiteral
  std::string table;                  // kColumnRef qualifier (may be empty)
  std::string column;                 // kColumnRef
  int param_index = 0;                // kParam ($1 => 1)
  std::string op;                     // kUnary/kBinary operator symbol
  std::string func_name;              // kFuncCall/kAggregate
  bool negated = false;               // IS NOT NULL / NOT LIKE / NOT IN / NOT BETWEEN
  bool star = false;                  // COUNT(*)
  bool distinct = false;              // COUNT(DISTINCT x)
  std::vector<ExprPtr> args;          // children (operands, call args,
                                      // CASE: [when1, then1, ..., else?])
  bool case_has_else = false;

  /// Pretty-printer (EXPLAIN output, diagnostics).
  std::string to_string() const;
};

ExprPtr make_literal(Datum d);
ExprPtr make_column(std::string table, std::string column);
ExprPtr make_binary(std::string op, ExprPtr lhs, ExprPtr rhs);

struct ColumnDef {
  std::string name;
  Type type = Type::kText;
};

struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

struct SelectItem {
  ExprPtr expr;   // null for '*'
  std::string alias;
  bool star = false;
};

struct TableRef {
  std::string table;
  std::string alias;  // empty = table name
  /// Join condition with the *previous* table in the FROM list; null for
  /// the first table or comma-joins (cross product + WHERE).
  ExprPtr join_on;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::vector<TableRef> from;   // empty = SELECT <exprs> without FROM
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  std::optional<int64_t> limit;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;       // empty = schema order
  std::vector<std::vector<ExprPtr>> rows; // literal expressions
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> sets;
  ExprPtr where;
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

/// CREATE FUNCTION with a recognised plpgsql body of the shape the paper's
/// exploits use:  BEGIN [RAISE NOTICE 'fmt', $1, ...;] RETURN expr; END
struct CreateFunctionStmt {
  std::string name;
  std::vector<Type> arg_types;
  Type return_type = Type::kBool;
  std::optional<std::string> notice_format;  // '%' placeholders
  std::vector<ExprPtr> notice_args;          // over $n params
  ExprPtr return_expr;                       // over $n params
  std::string language;                      // "plpgsql", "sql", ...
};

/// CREATE OPERATOR <symbol> (procedure=..., leftarg=..., rightarg=...,
/// restrict=<estimator>).
struct CreateOperatorStmt {
  std::string symbol;
  std::string procedure;
  Type left_type = Type::kInt;
  Type right_type = Type::kInt;
  std::string restrict_estimator;  // empty = none
};

struct SetStmt {
  std::string name;
  std::string value;
};

struct GrantStmt {
  std::string privilege;  // "SELECT", ...
  std::string table;
  std::string grantee;
};

struct AlterTableRlsStmt {
  std::string table;
  bool enable = true;
};

/// CREATE POLICY name ON table [TO role] USING (expr).
struct CreatePolicyStmt {
  std::string name;
  std::string table;
  std::string role;  // empty = all roles
  ExprPtr using_expr;
};

struct ExplainStmt {
  std::unique_ptr<SelectStmt> select;
};

/// No-op statements accepted for compatibility (BEGIN/COMMIT/ROLLBACK).
struct TxnStmt {
  std::string keyword;
};

struct Statement {
  enum class Kind {
    kSelect, kInsert, kUpdate, kDelete, kCreateTable, kDropTable,
    kCreateFunction, kCreateOperator, kSet, kGrant, kAlterTableRls,
    kCreatePolicy, kExplain, kTxn,
  };
  Kind kind;
  std::unique_ptr<SelectStmt> select;
  std::unique_ptr<InsertStmt> insert;
  std::unique_ptr<UpdateStmt> update;
  std::unique_ptr<DeleteStmt> del;
  std::unique_ptr<CreateTableStmt> create_table;
  std::unique_ptr<DropTableStmt> drop_table;
  std::unique_ptr<CreateFunctionStmt> create_function;
  std::unique_ptr<CreateOperatorStmt> create_operator;
  std::unique_ptr<SetStmt> set;
  std::unique_ptr<GrantStmt> grant;
  std::unique_ptr<AlterTableRlsStmt> alter_rls;
  std::unique_ptr<CreatePolicyStmt> create_policy;
  std::unique_ptr<ExplainStmt> explain;
  std::unique_ptr<TxnStmt> txn;
};

}  // namespace rddr::sqldb
