// In-memory SQL engine ("minipg") with a second vendor personality
// ("roachdb").
//
// This is the substrate substituting for PostgreSQL / CockroachDB (see
// DESIGN.md). Faithfulness targets, in order:
//   1. The observable behaviour of the two evaluated CVEs:
//      - CVE-2017-7484 (minipg <= 9.2.20): planner selectivity estimation
//        runs a user-defined operator's procedure over column statistics
//        without checking SELECT privilege -> RAISE NOTICE leaks values.
//      - CVE-2019-10130 (minipg 10.0..10.8): same estimation path samples
//        rows that row-level security should hide.
//   2. Vendor diversity: roachdb speaks the same SQL/wire surface but
//      rejects CREATE FUNCTION/OPERATOR (0A000), reports a different
//      version, forces serializable isolation, and returns unordered
//      SELECT results in sorted (not insertion) order.
//   3. Enough SQL for the TPC-H-lite / pgbench-lite workloads.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sqldb/ast.h"
#include "sqldb/value.h"

namespace rddr::sqldb {

/// Which latent bugs this engine build carries (derived from version).
struct VulnProfile {
  /// CVE-2017-7484: stats probe runs without a SELECT-privilege check.
  bool stats_leak_ignores_privilege = false;
  /// CVE-2019-10130: stats probe bypasses row-level security.
  bool stats_leak_ignores_rls = false;
};

/// Engine identity: product, version, feature set, row-order behaviour.
struct EngineInfo {
  std::string product;         // "minipg" | "roachdb"
  std::string version;         // "9.2.19", "10.7", "21.1.7", ...
  std::string version_banner;  // full version() / server_version text
  bool supports_udf = true;
  bool forces_serializable = false;
  /// true: unordered SELECTs return insertion order (Postgres heap scans);
  /// false: sorted order (roachdb KV scans) — the paper's "unspecified row
  /// order" deployment hazard.
  bool scan_insertion_order = true;
  VulnProfile vulns;
};

/// minipg personality; vulnerability flags are gated on `version`.
EngineInfo minipg_info(const std::string& version);

/// roachdb personality (no UDFs, serializable-only, sorted scans).
EngineInfo roachdb_info(const std::string& version = "21.1.7");

/// Compares dotted version strings numerically: -1/0/1.
int compare_versions(const std::string& a, const std::string& b);

struct Column {
  std::string name;
  Type type = Type::kText;
};

using Row = std::vector<Datum>;

/// Equality index on an integer column: an open-addressing table (linear
/// probing, load at most 3/4) from key to the first and last row holding
/// it, and a per-row `next` array that chains the rows of one key in
/// ascending ordinal order. Rows whose cell is not an integer are absent;
/// row ordinals are stored in 32 bits.
class IntIndex {
 public:
  /// Indexes column `column` of `rows` from scratch.
  void build(const std::vector<Row>& rows, size_t column);
  /// Adds row `ordinal` under `key`, keeping the key's rows ascending.
  void insert(int64_t key, size_t ordinal);
  /// Removes row `ordinal` from under `key`, where it must be.
  void erase(int64_t key, size_t ordinal);
  /// Calls `f(ordinal)` for each row under `key`, ascending, until it
  /// returns false; false when it did.
  template <typename F>
  bool for_each(int64_t key, F&& f) const {
    const Slot* s = find(key);
    if (!s) return true;
    // Stops at the tail, so a key with one row never reads next_.
    for (uint32_t r = s->head;; r = next_[r]) {
      if (!f(size_t{r})) return false;
      if (r == s->tail) return true;
    }
  }

  /// Same keys, each with the same rows (however the tables were laid out).
  bool operator==(const IntIndex& other) const;

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  struct Slot {
    int64_t key;
    uint32_t head;  // kNone: the slot is empty
    uint32_t tail;
  };

  size_t home(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// The slot holding `key`, or the empty slot that ends its probe.
  size_t probe(int64_t key) const;
  const Slot* find(int64_t key) const;
  /// Resizes the table for `keys` keys, keeping its entries.
  void rehash(size_t keys);

  std::vector<Slot> slots_;     // a power of two in size, or empty
  std::vector<uint32_t> next_;  // per row: the key's next row, or kNone
  size_t keys_ = 0;
  unsigned shift_ = 64;         // 64 - log2(slots_.size())
};

/// A row-level security policy. Its USING expression is its own copy,
/// bound against its table when the policy is created.
struct Policy {
  std::string name;
  std::string role;  // empty = applies to all
  Script using_expr;
};

struct TableData {
  std::string name;
  std::vector<Column> columns;
  std::vector<Row> rows;
  std::string owner = "postgres";
  bool rls_enabled = false;
  std::map<std::string, std::set<std::string>> grants;  // privilege -> users
  std::vector<Policy> policies;
  /// Equality indexes by column ordinal. SELECT, UPDATE and DELETE all
  /// probe them for a `col = <int literal>` conjunct: pgbench's
  /// primary-key lookups.
  std::map<int, IntIndex> hash_indexes;

  int find_column(std::string_view col) const;
  /// Approximate resident bytes (row overhead + datum payloads).
  int64_t approx_bytes() const;

  /// Builds (or rebuilds) a hash index on an integer column.
  void build_index(const std::string& column);
  /// Reindexes appended rows starting at `first_new_row`.
  void index_appended(size_t first_new_row);
  /// Rebuilds all indexes after DELETE compaction moves row ordinals.
  /// (UPDATE moves the entries of the rows it changes instead.)
  void rebuild_indexes();
};

/// A user-defined function. Its body's expressions are its own copies,
/// bound (with no FROM row in scope) when the function is created.
struct FunctionDef {
  std::string name;
  size_t nargs = 0;
  std::optional<std::string> notice_format;
  std::vector<Script> notice_args;
  std::optional<Script> return_expr;
};

struct OperatorDef {
  std::string symbol;
  std::string procedure;
  std::string restrict_estimator;  // non-empty => planner estimation hook
};

/// How Session::execute hands back a rowset's values.
enum class RowForm {
  kText,   // StatementResult::rows: each value as Postgres prints it
  kCells,  // StatementResult::cells: the values themselves, for a caller
           // that renders them on its own (the pgwire server)
};

/// Result of one statement.
struct StatementResult {
  bool is_rowset = false;  // SELECT / EXPLAIN produce rows
  std::vector<std::string> columns;
  /// RowForm::kText: text values, nullopt for NULL.
  std::vector<std::vector<std::optional<std::string>>> rows;
  /// RowForm::kCells: row-major, columns.size() values per row.
  std::vector<Datum> cells;
  size_t row_count = 0;  // rows of a rowset, in either form
  std::string command_tag;          // "SELECT 3", "CREATE TABLE", ...
  std::vector<std::string> notices; // RAISE NOTICE output (pre-filtering)
  std::optional<std::string> error_sqlstate;
  std::string error_message;
  int64_t rows_scanned = 0;

  bool failed() const { return error_sqlstate.has_value(); }
};

struct ExecResult {
  std::vector<StatementResult> statements;
  int64_t rows_scanned = 0;  // total, for the CPU cost model
};

/// Observer for engine state changes, implemented by the storage engine
/// (sqldb/storage/) to maintain page-level dirty tracking and the buffer
/// pool without the executor knowing about pages. Callbacks fire at the
/// mutation site, inside statement execution; all default to no-ops.
/// Mutation callbacks also fire for the already-applied part of a
/// statement that later fails (the engine keeps partial effects), so a
/// listener sees exactly what the table now contains.
class MutationListener {
 public:
  virtual ~MutationListener() = default;
  /// Rows [first_new_row, table.rows.size()) were appended.
  virtual void on_rows_appended(const TableData& table, size_t first_new_row) {
    (void)table;
    (void)first_new_row;
  }
  /// Row `ordinal` was updated in place.
  virtual void on_row_updated(const TableData& table, size_t ordinal) {
    (void)table;
    (void)ordinal;
  }
  /// DELETE compaction: rows from `first_changed` onward moved or went
  /// away; the table previously held `old_row_count` rows.
  virtual void on_rows_compacted(const TableData& table, size_t first_changed,
                                 size_t old_row_count) {
    (void)table;
    (void)first_changed;
    (void)old_row_count;
  }
  virtual void on_table_created(const TableData& table) { (void)table; }
  virtual void on_table_dropped(const std::string& name) { (void)name; }
  /// Per-table catalog change: grants, RLS flag, policies, indexes.
  virtual void on_catalog_changed(const TableData& table) { (void)table; }
  /// Database-level catalog change: functions / operators.
  virtual void on_schema_changed() {}
  /// A SELECT, UPDATE or DELETE pass visited `table`: the rows `index`
  /// holds under `key` when an index narrowed it, every row when `index`
  /// is null. Read-only (does not advance the mutation epoch).
  virtual void on_scan(const TableData& table, const IntIndex* index,
                       int64_t key) {
    (void)table;
    (void)index;
    (void)key;
  }
};

/// Shared database state (one per simulated server instance).
class Database {
 public:
  explicit Database(EngineInfo info);

  const EngineInfo& info() const { return info_; }

  /// Bulk-load API (workload generators): creates owned by `postgres`.
  TableData* create_table(const std::string& name,
                          std::vector<Column> columns);
  TableData* find_table(std::string_view name);
  const TableData* find_table(std::string_view name) const;

  /// Approximate resident size of all tables (memory model).
  int64_t approx_bytes() const;
  int64_t total_rows() const;

  template <typename T>
  using Catalog = std::map<std::string, T, std::less<>>;
  const Catalog<FunctionDef>& functions() const { return functions_; }
  const Catalog<OperatorDef>& operators() const { return operators_; }

  /// Read access for the snapshot writer (sqldb/snapshot.h).
  const Catalog<TableData>& tables() const { return tables_; }

  /// Attaches/detaches the (single, not owned) mutation listener.
  void set_mutation_listener(MutationListener* listener) {
    listener_ = listener;
  }

 private:
  friend class Session;
  friend struct SnapshotReader;  // sqldb/snapshot.cc: wholesale loads

  void note_rows_appended(const TableData& t, size_t first) {
    if (listener_) listener_->on_rows_appended(t, first);
  }
  void note_row_updated(const TableData& t, size_t ordinal) {
    if (listener_) listener_->on_row_updated(t, ordinal);
  }
  void note_rows_compacted(const TableData& t, size_t first, size_t old_rows) {
    if (listener_) listener_->on_rows_compacted(t, first, old_rows);
  }
  void note_table_created(const TableData& t) {
    if (listener_) listener_->on_table_created(t);
  }
  void note_table_dropped(const std::string& name) {
    if (listener_) listener_->on_table_dropped(name);
  }
  void note_catalog_changed(const TableData& t) {
    if (listener_) listener_->on_catalog_changed(t);
  }
  void note_schema_changed() {
    if (listener_) listener_->on_schema_changed();
  }
  void note_scan(const TableData& t, const IntIndex* index, int64_t key) {
    if (listener_) listener_->on_scan(t, index, key);
  }

  EngineInfo info_;
  Catalog<TableData> tables_;
  Catalog<FunctionDef> functions_;
  Catalog<OperatorDef> operators_;
  MutationListener* listener_ = nullptr;
};

/// One client session: user identity + session settings. Sessions are
/// cheap; the pgwire server creates one per connection.
class Session {
 public:
  Session(Database& db, std::string user);

  /// Parses and executes a script (the simple-protocol behaviour: stop at
  /// the first failing statement).
  ExecResult execute(std::string_view sql, RowForm form = RowForm::kText);

  const std::string& user() const { return user_; }

  /// Current value of a session setting ("" when unset).
  std::string_view setting(std::string_view name) const;

 private:
  struct AccessPath;  // engine.cc
  /// The rows one pass over `t` visits, chosen by `where`'s indexed
  /// equality conjuncts; reports the pass to the buffer-pool model.
  AccessPath open_scan(const TableData& t, const Node* where);

  /// Runs one statement, keeping its working arrays in `arena`, which
  /// lives as long as the statement does.
  StatementResult run_statement(Statement& st, Arena& arena);
  StatementResult run_select(SelectStmt& sel, bool explain_only, Arena& arena);
  StatementResult run_insert(InsertStmt& ins);
  StatementResult run_update(UpdateStmt& up, Arena& arena);
  StatementResult run_delete(DeleteStmt& del);
  StatementResult run_create_table(const CreateTableStmt& ct);
  StatementResult run_drop_table(const DropTableStmt& d);
  StatementResult run_create_function(const CreateFunctionStmt& fn);
  StatementResult run_create_operator(const CreateOperatorStmt& op);
  StatementResult run_set(const SetStmt& set);
  StatementResult run_grant(const GrantStmt& g);
  StatementResult run_alter_rls(const AlterTableRlsStmt& a);
  StatementResult run_create_policy(const CreatePolicyStmt& p);
  TableData* table_for(std::string_view name, const char* privilege,
                       StatementResult& out);

  Database& db_;
  std::string user_;
  std::map<std::string, std::string, std::less<>> settings_;
};

}  // namespace rddr::sqldb
