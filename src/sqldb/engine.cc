#include "sqldb/engine.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <tuple>

#include "common/strutil.h"
#include "sqldb/eval.h"
#include "sqldb/parser.h"

namespace rddr::sqldb {

namespace {

/// Rows sampled by the planner's selectivity estimation probe — stands in
/// for Postgres' pg_statistic histogram contents (the CVE leak channel).
constexpr size_t kStatsSampleRows = 30;

// ---------- version handling ----------

std::vector<int> parse_version(const std::string& v) {
  std::vector<int> out;
  for (const auto& part : split(v, '.')) {
    auto n = parse_i64(part);
    out.push_back(n ? static_cast<int>(*n) : 0);
  }
  return out;
}

}  // namespace

int compare_versions(const std::string& a, const std::string& b) {
  auto va = parse_version(a), vb = parse_version(b);
  size_t n = std::max(va.size(), vb.size());
  for (size_t i = 0; i < n; ++i) {
    int x = i < va.size() ? va[i] : 0;
    int y = i < vb.size() ? vb[i] : 0;
    if (x != y) return x < y ? -1 : 1;
  }
  return 0;
}

EngineInfo minipg_info(const std::string& version) {
  EngineInfo info;
  info.product = "minipg";
  info.version = version;
  info.version_banner = "PostgreSQL " + version + " (minipg build)";
  info.supports_udf = true;
  info.scan_insertion_order = true;
  // CVE-2017-7484: fixed in 9.2.21 / 9.6.3 / 10.0. Anything older leaks
  // stats without a privilege check.
  if (compare_versions(version, "9.2.21") < 0)
    info.vulns.stats_leak_ignores_privilege = true;
  // CVE-2019-10130: affects 9.5..11 before the 2019-05 minors; our gate:
  // 10.0 <= v < 10.8 bypasses RLS in the stats probe (fixed by 10.8/10.9).
  if (compare_versions(version, "10.0") >= 0 &&
      compare_versions(version, "10.8") < 0)
    info.vulns.stats_leak_ignores_rls = true;
  return info;
}

EngineInfo roachdb_info(const std::string& version) {
  EngineInfo info;
  info.product = "roachdb";
  info.version = version;
  info.version_banner = "RoachDB CCL v" + version + " (compatible; minipg wire)";
  info.supports_udf = false;
  info.forces_serializable = true;
  info.scan_insertion_order = false;  // KV scans come back sorted
  return info;
}

int TableData::find_column(std::string_view col) const {
  for (size_t i = 0; i < columns.size(); ++i)
    if (columns[i].name == col) return static_cast<int>(i);
  return -1;
}

void IntIndex::rehash(size_t keys) {
  size_t slots = 16;
  while (4 * keys > 3 * slots) slots *= 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(slots, Slot{0, kNone, kNone});
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  // The chains stay in next_, so only the slots move.
  for (const Slot& o : old)
    if (o.head != kNone) slots_[probe(o.key)] = o;
}

size_t IntIndex::probe(int64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = home(key);
  while (slots_[i].head != kNone && slots_[i].key != key) i = (i + 1) & mask;
  return i;
}

const IntIndex::Slot* IntIndex::find(int64_t key) const {
  if (slots_.empty()) return nullptr;
  const Slot& s = slots_[probe(key)];
  return s.head == kNone ? nullptr : &s;
}

void IntIndex::build(const std::vector<Row>& rows, size_t column) {
  size_t keyed = 0;
  for (const Row& row : rows) keyed += row[column].type() == Type::kInt;
  slots_.clear();
  keys_ = 0;
  rehash(keyed);
  next_.assign(rows.size(), kNone);
  for (size_t i = 0; i < rows.size(); ++i)
    if (rows[i][column].type() == Type::kInt)
      insert(rows[i][column].as_int(), i);
}

void IntIndex::insert(int64_t key, size_t ordinal) {
  const auto r = static_cast<uint32_t>(ordinal);
  if (ordinal >= next_.size()) next_.resize(ordinal + 1, kNone);
  // Room for one more key, whether or not `key` is new.
  if (4 * (keys_ + 1) > 3 * slots_.size()) rehash(keys_ + 1);
  Slot* s = &slots_[probe(key)];
  if (s->head == kNone) {
    *s = Slot{key, r, r};
    next_[r] = kNone;
    ++keys_;
    return;
  }
  if (r > s->tail) {  // appends land here
    next_[s->tail] = r;
    next_[r] = kNone;
    s->tail = r;
  } else if (r < s->head) {
    next_[r] = s->head;
    s->head = r;
  } else {
    uint32_t prev = s->head;
    while (next_[prev] < r) prev = next_[prev];
    next_[r] = next_[prev];
    next_[prev] = r;
  }
}

void IntIndex::erase(int64_t key, size_t ordinal) {
  const auto r = static_cast<uint32_t>(ordinal);
  size_t i = probe(key);
  Slot& s = slots_[i];
  if (s.head != r) {
    uint32_t prev = s.head;
    while (next_[prev] != r) prev = next_[prev];
    next_[prev] = next_[r];
    if (s.tail == r) s.tail = prev;
    return;
  }
  s.head = next_[r];
  if (s.head != kNone) return;
  // The key's last row: empty its slot, shifting back each later slot of
  // the cluster whose home does not lie cyclically in (i, j].
  --keys_;
  const size_t mask = slots_.size() - 1;
  for (size_t j = (i + 1) & mask; slots_[j].head != kNone; j = (j + 1) & mask) {
    const size_t h = home(slots_[j].key);
    if (i < j ? (i < h && h <= j) : (i < h || h <= j)) continue;
    slots_[i] = slots_[j];
    i = j;
  }
  slots_[i].head = kNone;
}

bool IntIndex::operator==(const IntIndex& other) const {
  if (keys_ != other.keys_) return false;
  for (const Slot& s : slots_) {
    if (s.head == kNone) continue;
    const Slot* o = other.find(s.key);
    if (!o) return false;
    uint32_t a = s.head, b = o->head;
    while (a == b && a != kNone) {
      a = next_[a];
      b = other.next_[b];
    }
    if (a != b) return false;
  }
  return true;
}

void TableData::build_index(const std::string& column) {
  int idx = find_column(column);
  if (idx < 0) return;
  hash_indexes[idx].build(rows, static_cast<size_t>(idx));
}

void TableData::index_appended(size_t first_new_row) {
  for (auto& [col, index] : hash_indexes) {
    for (size_t i = first_new_row; i < rows.size(); ++i) {
      const Datum& d = rows[i][static_cast<size_t>(col)];
      if (d.type() == Type::kInt) index.insert(d.as_int(), i);
    }
  }
}

void TableData::rebuild_indexes() {
  for (auto& [col, index] : hash_indexes)
    index.build(rows, static_cast<size_t>(col));
}

int64_t TableData::approx_bytes() const {
  int64_t bytes = 0;
  for (const auto& row : rows) {
    bytes += 24;  // tuple header
    for (const auto& d : row) {
      switch (d.type()) {
        case Type::kText: bytes += 16 + static_cast<int64_t>(d.as_text().size()); break;
        case Type::kNull: bytes += 1; break;
        default: bytes += 8;
      }
    }
  }
  return bytes;
}

Database::Database(EngineInfo info) : info_(std::move(info)) {}

TableData* Database::create_table(const std::string& name,
                                  std::vector<Column> columns) {
  TableData t;
  t.name = name;
  t.columns = std::move(columns);
  auto [it, _] = tables_.insert_or_assign(name, std::move(t));
  note_table_created(it->second);
  return &it->second;
}

TableData* Database::find_table(std::string_view name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const TableData* Database::find_table(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

int64_t Database::approx_bytes() const {
  int64_t total = 0;
  for (const auto& [_, t] : tables_) total += t.approx_bytes();
  return total;
}

int64_t Database::total_rows() const {
  int64_t total = 0;
  for (const auto& [_, t] : tables_) total += static_cast<int64_t>(t.rows.size());
  return total;
}

// ---------- evaluation helpers ----------

namespace {

bool expr_has_aggregate(const Node& e) {
  if (e.op == Op::kAggregate) return true;
  for (const Node* k = e.first; k; k = k->next)
    if (expr_has_aggregate(*k)) return true;
  return false;
}

/// The value an evaluation returned, moved out of `tmp` when it lives
/// there and copied otherwise.
Datum take(const Datum* v, Datum& tmp) {
  if (v == &tmp) return std::move(tmp);
  return *v;
}

/// Fails `out` with `e`; returning the result ends the statement.
StatementResult&& fail_with(StatementResult& out, const SqlError& e) {
  out.error_sqlstate = e.sqlstate;
  out.error_message = e.message;
  return std::move(out);
}

/// Fails `out` for naming a table that does not exist.
StatementResult&& no_such_relation(StatementResult& out,
                                   std::string_view table) {
  return fail_with(out,
                   {"42P01", "relation does not exist: " + std::string(table)});
}

}  // namespace

// ---------- session ----------

Session::Session(Database& db, std::string user)
    : db_(db), user_(std::move(user)) {
  settings_["client_min_messages"] = "notice";
}

std::string_view Session::setting(std::string_view name) const {
  auto it = settings_.find(name);
  return it == settings_.end() ? std::string_view() : it->second;
}

ExecResult Session::execute(std::string_view sql, RowForm form) {
  ExecResult result;
  auto parsed = parse_sql(sql);
  if (!parsed.ok()) {
    StatementResult sr;
    result.statements.push_back(fail_with(sr, {"42601", parsed.error()}));
    return result;
  }
  Script& script = parsed.value();
  result.statements.reserve(script.size());
  for (Statement& st : script) {
    StatementResult sr = run_statement(st, script.arena());
    bool failed = sr.failed();
    result.rows_scanned += sr.rows_scanned;
    if (form == RowForm::kText && sr.row_count > 0) {
      const size_t width = sr.columns.size();
      sr.rows.resize(sr.row_count);
      for (size_t r = 0; r < sr.row_count; ++r) {
        sr.rows[r].reserve(width);
        for (size_t c = 0; c < width; ++c) {
          const Datum& d = sr.cells[r * width + c];
          if (d.is_null()) sr.rows[r].emplace_back();
          else sr.rows[r].emplace_back(d.to_text());
        }
      }
      sr.cells.clear();
    }
    result.statements.push_back(std::move(sr));
    if (failed) break;  // simple-protocol scripts abort at first error
  }
  return result;
}

StatementResult Session::run_statement(Statement& st, Arena& arena) {
  using K = Statement::Kind;
  switch (st.kind) {
    case K::kSelect: return run_select(*st.select, false, arena);
    case K::kInsert: return run_insert(*st.insert);
    case K::kUpdate: return run_update(*st.update, arena);
    case K::kDelete: return run_delete(*st.del);
    case K::kCreateTable: return run_create_table(*st.create_table);
    case K::kDropTable: return run_drop_table(*st.drop_table);
    case K::kCreateFunction: return run_create_function(*st.create_function);
    case K::kCreateOperator: return run_create_operator(*st.create_operator);
    case K::kSet: return run_set(*st.set);
    case K::kGrant: return run_grant(*st.grant);
    case K::kAlterTableRls: return run_alter_rls(*st.alter_rls);
    case K::kCreatePolicy: return run_create_policy(*st.create_policy);
    case K::kExplain:
      return run_select(*st.select, true, arena);
    case K::kTxn: {
      StatementResult sr;
      sr.command_tag = to_upper(st.txn_keyword);
      return sr;
    }
  }
  StatementResult sr;
  sr.error_sqlstate = "XX000";
  sr.error_message = "unhandled statement";
  return sr;
}

namespace {

/// Can `user` SELECT from `t`?
bool can_select(const TableData& t, const std::string& user) {
  if (user == "postgres" || user == t.owner) return true;
  auto it = t.grants.find("SELECT");
  return it != t.grants.end() && it->second.count(user) > 0;
}

bool can_modify(const TableData& t, const std::string& user,
                const std::string& privilege) {
  if (user == "postgres" || user == t.owner) return true;
  auto it = t.grants.find(privilege);
  return it != t.grants.end() && it->second.count(user) > 0;
}

/// True when RLS filtering applies to this user on this table.
bool rls_applies(const TableData& t, const std::string& user) {
  return t.rls_enabled && user != "postgres" && user != t.owner;
}

/// The value of an integer literal, or of a negated one (`-7`, which
/// Postgres folds into a constant too).
std::optional<int64_t> int_literal(const Node& e) {
  if (e.op == Op::kLiteral && e.literal.type() == Type::kInt)
    return e.literal.as_int();
  if (is_operator(e, "-", 1)) {
    // INT64_MIN has its own literal; negating it would overflow.
    std::optional<int64_t> v = int_literal(*e.first);
    if (v && *v != INT64_MIN) return -*v;
  }
  return std::nullopt;
}

/// An index lookup: the rows `index` holds under `key`.
struct IndexProbe {
  const IntIndex* index;
  int64_t key;
};

/// The first "col = <int literal>" conjunct of `e` that a hash index
/// covers, visiting AND operands right to left; none for a full scan.
std::optional<IndexProbe> index_probe(const TableData& t, const Node* e) {
  if (!e) return std::nullopt;
  if (e->op == Op::kAnd) {
    if (auto out = index_probe(t, &e->kid(1))) return out;
    return index_probe(t, e->first);
  }
  if (!is_operator(*e, "=")) return std::nullopt;
  const Node* col = e->first;
  const Node* lit = col->next;
  if (!is_column_ref(col->op)) std::swap(col, lit);
  if (!is_column_ref(col->op)) return std::nullopt;
  std::optional<int64_t> key = int_literal(*lit);
  if (!key) return std::nullopt;
  int ci = t.find_column(col->name);
  if (ci < 0) return std::nullopt;
  auto it = t.hash_indexes.find(ci);
  if (it == t.hash_indexes.end()) return std::nullopt;
  return IndexProbe{&it->second, *key};
}

/// Planner statistics probe: the CVE site. Selectivity estimation for
/// user-defined operators with a `restrict` estimator evaluates the
/// operator's procedure over sampled column values. Which rows may be
/// sampled depends on the engine build:
///   - privilege unchecked (CVE-2017-7484) on vulnerable builds;
///   - RLS unchecked (CVE-2019-10130) on vulnerable builds.
/// Visits `e` bottom-up, probing every such operator it contains.
void probe_statistics(const Database& db, const std::string& user, Node& e,
                      std::span<const ScopeLevel> from, StatementResult& out) {
  for (Node* k = e.first; k; k = k->next)
    probe_statistics(db, user, *k, from, out);
  if (!is_infix(e)) return;
  auto oit = db.operators().find(e.name);
  if (oit == db.operators().end()) return;
  if (oit->second.restrict_estimator.empty()) return;
  auto fit = db.functions().find(oit->second.procedure);
  if (fit == db.functions().end()) return;
  // Identify the column operand and its table.
  Node* col_expr = e.first;
  Node* other = col_expr->next;
  if (!is_column_ref(col_expr->op)) std::swap(col_expr, other);
  if (!is_column_ref(col_expr->op)) return;
  const TableData* table = nullptr;
  size_t col_idx = 0;
  for (const auto& level : from) {
    if (!col_expr->table.empty() && level.alias != col_expr->table) continue;
    int idx = level.table->find_column(col_expr->name);
    if (idx >= 0) {
      table = level.table;
      col_idx = static_cast<size_t>(idx);
      break;
    }
  }
  if (!table) return;
  // Privilege gate (fixed in 9.2.21+ for CVE-2017-7484).
  if (!db.info().vulns.stats_leak_ignores_privilege && !can_select(*table, user))
    return;
  // Constant side of the operator, evaluated without notices.
  Evaluator constant(db, user, nullptr);
  Datum const_tmp;
  const Datum* const_side = constant.eval_constant(*other, const_tmp);
  if (!const_side) return;
  bool col_on_left = col_expr == e.first;
  // Sample rows; RLS gate (fixed in 10.8+ for CVE-2019-10130).
  Evaluator ev(db, user, &out.notices);
  bool rls = rls_applies(*table, user) && !db.info().vulns.stats_leak_ignores_rls;
  size_t sampled = 0;
  for (const auto& row : table->rows) {
    if (sampled >= kStatsSampleRows) break;
    if (rls) {
      bool visible = false;
      if (!ev.row_visible(*table, row, visible) || !visible) {
        ev.clear_error();
        continue;
      }
    }
    ++sampled;
    const Datum* colv = &row[col_idx];
    const Datum* args[] = {col_on_left ? colv : const_side,
                           col_on_left ? const_side : colv};
    Datum result;
    if (!ev.call_function(fit->second, args, 2, result)) ev.clear_error();
    out.rows_scanned += 1;
  }
}

/// Moves row `ordinal` from `before` to `after` in an index on one of its
/// columns (only integer keys are indexed).
void reindex_row(IntIndex& index, size_t ordinal, const Datum& before,
                 const Datum& after) {
  bool had = before.type() == Type::kInt;
  bool has = after.type() == Type::kInt;
  if (had && has && before.as_int() == after.as_int()) return;
  if (had) index.erase(before.as_int(), ordinal);
  if (has) index.insert(after.as_int(), ordinal);
}

/// A join level's key table: its table's rows keyed by the column of its
/// ON's equi-conjunct (Evaluator::JoinKey), built on the level's first open
/// in a statement. Candidates are a superset of Datum::compare's equality,
/// which compares numbers as doubles (two integers exactly, which implies
/// equal doubles), and the ON decides each: a numeric key is its double
/// value with -0.0 folded to +0.0, a NULL key matches nothing, and a text,
/// bool or NaN key, which may equal values of other types, is a candidate
/// for every outer value.
class JoinKeyTable {
  struct Entry {
    double key;
    size_t ordinal;
  };

 public:
  /// Row ordinals, ascending: the matching keys' rows merged with the rows
  /// every outer value visits, or every row of the table.
  class Candidates {
   public:
    bool next(size_t& ordinal) {
      if (next_row_ < every_) {
        ordinal = next_row_++;
        return true;
      }
      bool keyed = keyed_ != keyed_end_, always = always_ != always_end_;
      if (!keyed && !always) return false;
      if (keyed && (!always || keyed_->ordinal < *always_))
        ordinal = (keyed_++)->ordinal;
      else
        ordinal = *always_++;
      return true;
    }

   private:
    friend class JoinKeyTable;
    const Entry* keyed_ = nullptr;
    const Entry* keyed_end_ = nullptr;
    const size_t* always_ = nullptr;
    const size_t* always_end_ = nullptr;
    size_t next_row_ = 0, every_ = 0;
  };

  explicit JoinKeyTable(Evaluator::JoinKey key) : key_(key) {}

  /// The candidates of table `t` for the outer rows in `rows`.
  Candidates candidates(const TableData& t, const Row* const* rows) {
    if (!built_) build(t);
    const Datum& outer = (*rows[key_.outer_level])[key_.outer_column];
    Candidates c;
    if (outer.is_null()) return c;
    std::optional<double> k = numeric_key(outer);
    if (!k) {
      c.every_ = t.rows.size();
      return c;
    }
    const Entry* keyed = keyed_.data();
    std::tie(c.keyed_, c.keyed_end_) = std::equal_range(
        keyed, keyed + keyed_.size(), Entry{*k, 0},
        [](const Entry& a, const Entry& b) { return a.key < b.key; });
    c.always_ = always_.data();
    c.always_end_ = always_.data() + always_.size();
    return c;
  }

 private:
  /// The key of a value equal only to numbers of the same double value.
  static std::optional<double> numeric_key(const Datum& d) {
    double v;
    if (d.type() == Type::kInt)
      v = static_cast<double>(d.as_int());
    else if (d.type() == Type::kFloat && !std::isnan(d.as_float()))
      v = d.as_float();
    else
      return std::nullopt;
    return v == 0 ? 0.0 : v;
  }

  void build(const TableData& t) {
    built_ = true;
    keyed_.reserve(t.rows.size());
    for (size_t i = 0; i < t.rows.size(); ++i) {
      const Datum& d = t.rows[i][key_.column];
      if (d.is_null()) continue;
      if (std::optional<double> k = numeric_key(d))
        keyed_.push_back({*k, i});
      else
        always_.push_back(i);
    }
    std::sort(keyed_.begin(), keyed_.end(), [](const Entry& a, const Entry& b) {
      return a.key < b.key || (a.key == b.key && a.ordinal < b.ordinal);
    });
  }

  Evaluator::JoinKey key_;
  bool built_ = false;
  std::vector<Entry> keyed_;   // by (key, ordinal)
  std::vector<size_t> always_;  // ascending
};

}  // namespace

// ---------- Access path ----------

/// The row ordinals one pass over a table visits, ascending: the rows its
/// WHERE clause's indexed key holds, walked in the index's own chain, or
/// every row when no index applies. SELECT, UPDATE and DELETE all walk
/// their table through it, so a WHERE clause is evaluated only on the
/// rows the access path visits.
struct Session::AccessPath {
  const IntIndex* index = nullptr;  // null: heap scan
  int64_t key = 0;
  size_t heap_rows = 0;

  /// Calls `f(ordinal)` for each row, until it returns false; false when
  /// it did.
  template <typename F>
  bool each(F&& f) const {
    if (index) return index->for_each(key, f);
    for (size_t i = 0; i < heap_rows; ++i)
      if (!f(i)) return false;
    return true;
  }
};

Session::AccessPath Session::open_scan(const TableData& t, const Node* where) {
  AccessPath path;
  path.heap_rows = t.rows.size();
  if (std::optional<IndexProbe> probe = index_probe(t, where)) {
    path.index = probe->index;
    path.key = probe->key;
  }
  // Buffer-pool modeling: tell the storage layer which pages this pass
  // touches (all of them for a heap scan, just the key's rows' pages for
  // an index probe).
  db_.note_scan(t, path.index, path.key);
  return path;
}

// ---------- SELECT ----------

StatementResult Session::run_select(SelectStmt& sel, bool explain_only,
                                    Arena& arena) {
  StatementResult out;
  out.is_rowset = true;

  // Resolve FROM tables; expressions see them as scope levels, in order.
  const size_t width = sel.from.size();
  const std::span<ScopeLevel> from(arena.make<ScopeLevel>(width), width);
  for (size_t l = 0; l < width; ++l) {
    const TableRef& tr = sel.from[l];
    from[l] = ScopeLevel{tr.alias, db_.find_table(tr.table)};
    if (!from[l].table) return no_such_relation(out, tr.table);
  }

  if (sel.where) probe_statistics(db_, user_, *sel.where, from, out);

  if (explain_only) {
    out.columns = {"QUERY PLAN"};
    for (size_t i = 0; i < width; ++i) {
      std::string line(i == 0 ? "Seq Scan on " : "  Nested Loop join with ");
      out.cells.push_back(Datum::text(line.append(sel.from[i].table)));
      if (sel.from[i].join_on)
        out.cells.push_back(Datum::text("    Join Filter: " +
                                        to_sql(*sel.from[i].join_on)));
    }
    if (from.empty()) out.cells.push_back(Datum::text("Result"));
    if (sel.where)
      out.cells.push_back(Datum::text("  Filter: " + to_sql(*sel.where)));
    out.row_count = out.cells.size();
    out.command_tag = "EXPLAIN";
    return out;
  }

  // Privilege checks happen *after* planning — that ordering is the
  // CVE-2017-7484 leak-before-denial behaviour.
  for (const auto& level : from) {
    if (!can_select(*level.table, user_))
      return fail_with(out, {"42501", "permission denied for table " +
                                          level.table->name});
  }

  // Determine grouping.
  bool has_agg = !sel.group_by.empty();
  for (const auto& item : sel.items)
    if (item.expr && expr_has_aggregate(*item.expr)) has_agg = true;
  if (sel.having) has_agg = true;

  // Output column names.
  auto derive_name = [](const SelectItem& item) -> std::string_view {
    if (!item.alias.empty()) return item.alias;
    if (is_column_ref(item.expr->op) || item.expr->op == Op::kAggregate ||
        item.expr->op == Op::kCall)
      return item.expr->name;
    return "?column?";
  };

  for (const auto& item : sel.items) {
    if (item.star) {
      for (const auto& level : from)
        for (const auto& col : level.table->columns) out.columns.push_back(col.name);
    } else {
      out.columns.emplace_back(derive_name(item));
    }
  }

  // ---- Bind every expression once, against the levels it can see. ----
  Evaluator ev(db_, user_, &out.notices);
  const Node* const where = sel.where ? ev.bind(*sel.where, from) : nullptr;
  struct LevelPlan {
    const Node* join_on = nullptr;  // sees levels [0, this one]
    bool rls = false;
    JoinKeyTable* keys = nullptr;  // set: the level probes, see scan
  };
  LevelPlan* levels = arena.make<LevelPlan>(width);
  std::vector<std::unique_ptr<JoinKeyTable>> key_tables;
  for (size_t l = 0; l < width; ++l) {
    LevelPlan& plan = levels[l];
    if (sel.from[l].join_on)
      plan.join_on = ev.bind(*sel.from[l].join_on, from.first(l + 1));
    plan.rls = rls_applies(*from[l].table, user_);
    if (l > 0 && plan.join_on && !plan.rls)
      if (auto key = ev.join_key(plan.join_on, static_cast<uint32_t>(l)))
        plan.keys =
            key_tables.emplace_back(std::make_unique<JoinKeyTable>(*key)).get();
  }
  for (const auto& item : sel.items)
    if (!item.star) ev.bind(*item.expr, from);
  for (Node* g : sel.group_by) ev.bind(*g, from);
  Node* const having = sel.having;
  if (having) ev.bind(*having, from);
  for (const auto& oi : sel.order_by) ev.bind(*oi.expr, from);

  // ---- Build the joined, filtered row stream. ----
  List<const Row*> matches;  // `width` row pointers per match
  size_t n_matches = 0;
  const Row** acc = arena.make<const Row*>(width);
  auto scan = [&](auto& self, size_t level) -> bool {
    if (level == width) {
      if (where) {
        Datum tmp;
        const Datum* v = ev.eval(where, acc, tmp);
        if (!v) return false;
        if (!datum_is_true(*v)) return true;
      }
      for (size_t l = 0; l < width; ++l) matches.push_back(arena, acc[l]);
      ++n_matches;
      return true;
    }
    const TableData& t = *from[level].table;
    LevelPlan& plan = levels[level];
    // Visits one row of this level; false on error.
    auto visit = [&](const Row& row) -> bool {
      if (plan.rls) {
        bool visible = false;
        if (!ev.row_visible(t, row, visible)) return false;
        if (!visible) return true;
      }
      acc[level] = &row;
      // Apply the JOIN ON condition as soon as its table is in scope.
      if (plan.join_on) {
        Datum tmp;
        const Datum* v = ev.eval(plan.join_on, acc, tmp);
        if (!v) return false;
        if (!datum_is_true(*v)) return true;
      }
      return self(self, level + 1);
    };
    // Only a single-table query narrows its scan through an index. A join
    // level is modeled as the nested loop: one heap scan of its table per
    // outer row, every row counted.
    const AccessPath path =
        open_scan(t, level == 0 && width == 1 ? sel.where : nullptr);
    if (!plan.keys) {
      return path.each([&](size_t ordinal) {
        out.rows_scanned += 1;
        return visit(t.rows[ordinal]);
      });
    }
    // A probing level visits only the rows its ON's key conjunct can
    // admit, ascending, and counts rows as the nested loop reaches them:
    // ordinal o has counted o + 1, the finished level every row.
    auto candidates = plan.keys->candidates(t, acc);
    size_t counted = 0;
    for (size_t o; candidates.next(o);) {
      out.rows_scanned += static_cast<int64_t>(o + 1 - counted);
      counted = o + 1;
      if (!visit(t.rows[o])) return false;
    }
    out.rows_scanned += static_cast<int64_t>(t.rows.size() - counted);
    return true;
  };
  if (width == 0) {
    n_matches = 1;  // SELECT <exprs> without FROM: one row, nothing in scope
  } else if (!scan(scan, 0)) {
    return fail_with(out, ev.error());
  }
  auto match_rows = [&](size_t m) -> const Row* const* {
    return width ? matches.begin() + m * width : nullptr;
  };

  // ---- Project by reference. ----
  // Result row r's values are cells[r * ncols, (r + 1) * ncols). Each points
  // into a table row, at a statement literal, or into `computed` (a deque,
  // made on first use, so the pointers stay put as it grows). A
  // non-grouped result row r comes from match r.
  const size_t ncols = out.columns.size();
  List<const Datum*> cells;
  std::optional<std::deque<Datum>> computed;
  auto keep = [&computed](const Datum* v, Datum& tmp) -> const Datum* {
    if (v != &tmp) return v;
    if (!computed) computed.emplace();
    return &computed->emplace_back(std::move(tmp));
  };
  size_t n_results = 0;

  if (!has_agg) {
    cells.reserve(arena, n_matches * ncols);
    for (size_t m = 0; m < n_matches; ++m) {
      const Row* const* rows = match_rows(m);
      for (const SelectItem& item : sel.items) {
        if (item.star) {
          for (size_t l = 0; l < width; ++l)
            for (const Datum& d : *rows[l]) cells.push_back(arena, &d);
          continue;
        }
        Datum tmp;
        const Datum* v = ev.eval(item.expr, rows, tmp);
        if (!v) return fail_with(out, ev.error());
        cells.push_back(arena, keep(v, tmp));
      }
    }
    n_results = n_matches;
  } else {
    // ---- Grouped / aggregated path. ----
    // Each match's keys are evaluated in place (`key` points into a row,
    // a literal or `key_tmp`); a group copies them only when it is
    // created. `slots` is an open-addressing table of group id + 1, probed
    // linearly from the keys' hash. Groups with equal hashes lie along one
    // probe sequence in creation order, so a match joins the first-created
    // group whose hash and keys are equal.
    const size_t nk = sel.group_by.size();
    std::vector<Datum> key_tmp(nk);
    std::vector<const Datum*> key(nk);
    std::vector<Datum> group_keys;   // nk per group
    std::vector<size_t> group_hash;  // per group
    std::vector<uint32_t> slots(16);
    std::vector<uint32_t> group_of(n_matches);
    auto slot_of = [&](size_t h) {
      return (h * 0x9E3779B97F4A7C15ull) & (slots.size() - 1);
    };
    for (size_t m = 0; m < n_matches; ++m) {
      size_t h = 1469598103u;
      for (size_t i = 0; i < nk; ++i) {
        key[i] = ev.eval(sel.group_by[i], match_rows(m), key_tmp[i]);
        if (!key[i]) return fail_with(out, ev.error());
        h = h * 1099511628211ull ^ key[i]->hash();
      }
      size_t slot = slot_of(h);
      for (; slots[slot]; slot = (slot + 1) & (slots.size() - 1)) {
        const size_t gid = slots[slot] - 1;
        if (group_hash[gid] != h) continue;
        const Datum* gk = group_keys.data() + gid * nk;
        size_t i = 0;
        while (i < nk && gk[i].group_equal(*key[i])) ++i;
        if (i == nk) break;
      }
      if (slots[slot]) {
        group_of[m] = slots[slot] - 1;
        continue;
      }
      const size_t gid = group_hash.size();
      for (size_t i = 0; i < nk; ++i) group_keys.push_back(*key[i]);
      group_hash.push_back(h);
      group_of[m] = static_cast<uint32_t>(gid);
      slots[slot] = static_cast<uint32_t>(gid + 1);
      if (2 * group_hash.size() > slots.size()) {
        // Grow, re-inserting in creation order so that each probe
        // sequence keeps it.
        slots.assign(2 * slots.size(), 0);
        for (size_t g = 0; g < group_hash.size(); ++g) {
          size_t t = slot_of(group_hash[g]);
          while (slots[t]) t = (t + 1) & (slots.size() - 1);
          slots[t] = static_cast<uint32_t>(g + 1);
        }
      }
    }
    size_t n_groups = group_hash.size();
    // Aggregate over an empty input still yields one row (COUNT = 0).
    if (n_groups == 0 && sel.group_by.empty()) n_groups = 1;
    // Members of group g, in match order: members[first[g], first[g + 1]).
    std::vector<size_t> first(n_groups + 1, 0);
    for (uint32_t g : group_of) ++first[g + 1];
    for (size_t g = 0; g < n_groups; ++g) first[g + 1] += first[g];
    std::vector<size_t> members(n_matches);
    {
      std::vector<size_t> at(first.begin(), first.end() - 1);
      for (size_t m = 0; m < n_matches; ++m) members[at[group_of[m]]++] = m;
    }

    for (size_t g = 0; g < n_groups; ++g) {
      const GroupRows rows{matches.begin(), width, members.data() + first[g],
                           first[g + 1] - first[g]};
      // HAVING filter.
      if (having) {
        Datum tmp;
        const Datum* v = ev.eval_group(*having, rows, tmp);
        if (!v) return fail_with(out, ev.error());
        if (!datum_is_true(*v)) continue;
      }
      for (const SelectItem& item : sel.items) {
        if (item.star)
          return fail_with(out,
                           {"42803", "SELECT * not allowed with GROUP BY"});
        Datum tmp;
        const Datum* v = ev.eval_group(*item.expr, rows, tmp);
        if (!v) return fail_with(out, ev.error());
        cells.push_back(arena, keep(v, tmp));
      }
      ++n_results;
    }
  }

  // Result rows in output order when they are sorted below; empty when
  // they go out in production order.
  std::vector<size_t> order;
  auto number_results = [&] {
    order.resize(n_results);
    for (size_t r = 0; r < n_results; ++r) order[r] = r;
  };
  auto cell = [&](size_t r, size_t c) -> const Datum& {
    return *cells[r * ncols + c];
  };

  // ---- ORDER BY ----
  if (!sel.order_by.empty()) {
    // Each order key resolves to (a) a positional number, (b) a select
    // alias, (c) a select-item expression match, or (d) for non-grouped
    // queries, an arbitrary expression over the row scope.
    struct KeySpec {
      int select_index = -1;  // resolved to a projected column, else evaluated
      bool descending;
    };
    std::vector<KeySpec> specs;
    for (const auto& oi : sel.order_by) {
      KeySpec ks;
      ks.descending = oi.descending;
      const Node& e = *oi.expr;
      if (e.op == Op::kLiteral && e.literal.type() == Type::kInt) {
        int pos = static_cast<int>(e.literal.as_int());
        if (pos < 1 || pos > static_cast<int>(out.columns.size()))
          return fail_with(out, {"42P10", "ORDER BY position out of range"});
        ks.select_index = pos - 1;
      } else {
        // Alias or expression match against select items.
        std::string estr = to_sql(e);
        int col = 0;
        bool found = false;
        for (size_t i = 0; i < sel.items.size() && !found; ++i) {
          const auto& item = sel.items[i];
          int width_i = 1;
          if (item.star) {
            width_i = 0;
            for (const auto& level : from)
              width_i += static_cast<int>(level.table->columns.size());
          } else {
            if ((is_column_ref(e.op) && e.table.empty() &&
                 item.alias == e.name) ||
                (item.expr && to_sql(*item.expr) == estr)) {
              ks.select_index = col;
              found = true;
            }
          }
          col += width_i;
        }
      }
      specs.push_back(ks);
    }
    // Evaluate expression keys (non-grouped path only).
    const size_t nk = specs.size();
    std::vector<const Datum*> keys;  // nk per result row
    keys.reserve(n_results * nk);
    for (size_t r = 0; r < n_results; ++r) {
      for (size_t k = 0; k < nk; ++k) {
        if (specs[k].select_index >= 0) {
          keys.push_back(&cell(r, static_cast<size_t>(specs[k].select_index)));
        } else if (!has_agg && width > 0) {
          Datum tmp;
          const Datum* v = ev.eval(sel.order_by[k].expr, match_rows(r), tmp);
          if (!v) return fail_with(out, ev.error());
          keys.push_back(keep(v, tmp));
        } else {
          return fail_with(out, {"42803",
                                 "ORDER BY expression must appear in the "
                                 "select list for aggregate queries"});
        }
      }
    }
    number_results();
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t i = 0; i < nk; ++i) {
        const Datum& ka = *keys[a * nk + i];
        const Datum& kb = *keys[b * nk + i];
        auto c = ka.compare(kb);
        int cv;
        if (!c) {
          // NULLS LAST (asc) / FIRST (desc), like Postgres.
          bool an = ka.is_null(), bn = kb.is_null();
          if (an == bn) continue;
          cv = an ? 1 : -1;
        } else {
          cv = *c;
        }
        if (cv == 0) continue;
        return specs[i].descending ? cv > 0 : cv < 0;
      }
      return false;
    });
  } else if (!db_.info().scan_insertion_order) {
    // roachdb personality: unordered SELECTs come back sorted — the
    // paper's "unspecified row order" hazard, reproduced deliberately.
    number_results();
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t i = 0; i < ncols; ++i) {
        auto c = cell(a, i).compare(cell(b, i));
        if (!c) {
          bool an = cell(a, i).is_null(), bn = cell(b, i).is_null();
          if (an != bn) return bn;
          continue;
        }
        if (*c != 0) return *c < 0;
      }
      return false;
    });
  }

  size_t n_out = n_results;
  if (sel.limit && static_cast<int64_t>(n_out) > *sel.limit)
    n_out = static_cast<size_t>(*sel.limit);

  // The one copy of each value: into the statement's result.
  out.cells.reserve(n_out * ncols);
  for (size_t i = 0; i < n_out; ++i) {
    const size_t r = order.empty() ? i : order[i];
    for (size_t c = 0; c < ncols; ++c) out.cells.push_back(cell(r, c));
  }
  out.row_count = n_out;
  out.command_tag = "SELECT " + std::to_string(n_out);
  return out;
}

// ---------- DML / DDL ----------

StatementResult Session::run_insert(InsertStmt& ins) {
  StatementResult out;
  TableData* t = table_for(ins.table, "INSERT", out);
  if (!t) return out;
  std::vector<int> target_cols;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < t->columns.size(); ++i)
      target_cols.push_back(static_cast<int>(i));
  } else {
    for (std::string_view c : ins.columns) {
      int idx = t->find_column(c);
      if (idx < 0)
        return fail_with(out,
                         {"42703", "column does not exist: " + std::string(c)});
      target_cols.push_back(idx);
    }
  }
  Evaluator ev(db_, user_, &out.notices);
  for (const List<Node*>& row_exprs : ins.rows) {
    if (row_exprs.size() != target_cols.size())
      return fail_with(
          out, {"42601", "INSERT value count does not match column count"});
    Row row(t->columns.size());  // defaults to NULL
    for (size_t i = 0; i < row_exprs.size(); ++i) {
      Datum tmp;
      const Datum* v = ev.eval_constant(*row_exprs[i], tmp);
      if (!v) return fail_with(out, ev.error());
      size_t col = static_cast<size_t>(target_cols[i]);
      row[col] = take(v, tmp);
      SqlError err;
      if (!coerce(row[col], t->columns[col].type, err))
        return fail_with(out, err);
    }
    t->rows.push_back(std::move(row));
    // Noted and indexed per row, not per statement: a later row's eval
    // error aborts the statement but keeps the rows already appended
    // (engine semantics), and the storage layer and the indexes must see
    // those too.
    db_.note_rows_appended(*t, t->rows.size() - 1);
    t->index_appended(t->rows.size() - 1);
  }
  out.command_tag = "INSERT 0 " + std::to_string(ins.rows.size());
  return out;
}

StatementResult Session::run_update(UpdateStmt& up, Arena& arena) {
  StatementResult out;
  TableData* t = table_for(up.table, "UPDATE", out);
  if (!t) return out;
  Evaluator ev(db_, user_, &out.notices);
  const ScopeLevel scope[] = {{t->name, t}};
  struct SetTarget {
    size_t column;
    const Node* value;
    IntIndex* index;  // null: not indexed
  };
  List<SetTarget> sets;
  sets.reserve(arena, up.sets.size());
  for (const auto& [col, expr] : up.sets) {
    int idx = t->find_column(col);
    if (idx < 0)
      return fail_with(out,
                       {"42703", "column does not exist: " + std::string(col)});
    auto it = t->hash_indexes.find(idx);
    IntIndex* index = it == t->hash_indexes.end() ? nullptr : &it->second;
    sets.push_back(arena,
                   {static_cast<size_t>(idx), ev.bind(*expr, scope), index});
  }
  const Node* const where = up.where ? ev.bind(*up.where, scope) : nullptr;
  const bool rls = rls_applies(*t, user_);
  int64_t updated = 0;
  // An index path's rows are fixed before any SET runs, so a row whose
  // indexed column moves is visited once, as in a heap scan.
  const AccessPath path = open_scan(*t, up.where);
  List<size_t> keyed;
  if (path.index)
    path.each([&](size_t ordinal) {
      keyed.push_back(arena, ordinal);
      return true;
    });
  const size_t visits = path.index ? keyed.size() : path.heap_rows;
  for (size_t i = 0; i < visits; ++i) {
    const size_t ordinal = path.index ? keyed[i] : i;
    Row& row = t->rows[ordinal];
    const Row* rows[] = {&row};
    out.rows_scanned += 1;
    if (rls) {
      bool visible = false;
      if (!ev.row_visible(*t, row, visible)) {
        ev.clear_error();  // a failing policy hides the row
        continue;
      }
      if (!visible) continue;
    }
    if (where) {
      Datum tmp;
      const Datum* v = ev.eval(where, rows, tmp);
      if (!v) return fail_with(out, ev.error());
      if (!datum_is_true(*v)) continue;
    }
    // Each SET sees the ones before it; an indexed column moves its index
    // entry as it changes. A later SET that fails ends the statement but
    // keeps its partial effects, so the index and the listener must see
    // the SETs already applied to this row.
    for (size_t i = 0; i < sets.size(); ++i) {
      const SetTarget& set = sets[i];
      Datum tmp;
      const Datum* v = ev.eval(set.value, rows, tmp);
      SqlError err = v ? SqlError{} : ev.error();
      Datum value = v ? take(v, tmp) : Datum();
      if (!v || !coerce(value, t->columns[set.column].type, err)) {
        if (i > 0) db_.note_row_updated(*t, ordinal);
        return fail_with(out, err);
      }
      if (set.index) reindex_row(*set.index, ordinal, row[set.column], value);
      row[set.column] = std::move(value);
    }
    ++updated;
    db_.note_row_updated(*t, ordinal);
  }
  out.command_tag = "UPDATE " + std::to_string(updated);
  return out;
}

StatementResult Session::run_delete(DeleteStmt& del) {
  StatementResult out;
  TableData* t = table_for(del.table, "DELETE", out);
  if (!t) return out;
  Evaluator ev(db_, user_, &out.notices);
  const ScopeLevel scope[] = {{t->name, t}};
  const Node* const where = del.where ? ev.bind(*del.where, scope) : nullptr;
  const bool rls = rls_applies(*t, user_);
  // Decide every row first, so a failing WHERE leaves the table as it was.
  std::vector<bool> doomed(t->rows.size());
  int64_t deleted = 0;
  size_t first_removed = t->rows.size();
  const AccessPath path = open_scan(*t, del.where);
  const bool decided = path.each([&](size_t ordinal) {
    const Row* rows[] = {&t->rows[ordinal]};
    out.rows_scanned += 1;
    bool remove = true;
    if (rls) {
      bool visible = false;
      remove = ev.row_visible(*t, *rows[0], visible) && visible;
      ev.clear_error();  // a failing policy keeps the row
    }
    if (remove && where) {
      Datum tmp;
      const Datum* v = ev.eval(where, rows, tmp);
      if (!v) return false;
      remove = datum_is_true(*v);
    }
    if (remove) {
      doomed[ordinal] = true;
      if (++deleted == 1) first_removed = ordinal;
    }
    return true;
  });
  if (!decided) return fail_with(out, ev.error());
  if (deleted > 0) {
    size_t old_row_count = t->rows.size();
    size_t kept = first_removed;
    for (size_t ordinal = first_removed; ordinal < old_row_count; ++ordinal)
      if (!doomed[ordinal]) t->rows[kept++] = std::move(t->rows[ordinal]);
    t->rows.resize(kept);
    db_.note_rows_compacted(*t, first_removed, old_row_count);
    if (!t->hash_indexes.empty()) t->rebuild_indexes();
  }
  out.command_tag = "DELETE " + std::to_string(deleted);
  return out;
}

StatementResult Session::run_create_table(const CreateTableStmt& ct) {
  StatementResult out;
  if (db_.find_table(ct.table))
    return fail_with(
        out, {"42P07", "relation already exists: " + std::string(ct.table)});
  std::vector<Column> cols;
  for (const auto& c : ct.columns)
    cols.push_back(Column{std::string(c.name), c.type});
  TableData* t = db_.create_table(std::string(ct.table), std::move(cols));
  t->owner = user_;  // covered by create_table's listener notification
  out.command_tag = "CREATE TABLE";
  return out;
}

StatementResult Session::run_drop_table(const DropTableStmt& d) {
  StatementResult out;
  const std::string name(d.table);
  if (d.if_exists && !db_.find_table(name)) {
    out.command_tag = "DROP TABLE";
    out.notices.push_back("table \"" + name + "\" does not exist, skipping");
    return out;
  }
  if (!table_for(name, nullptr, out)) return out;
  db_.tables_.erase(name);
  db_.note_table_dropped(name);
  out.command_tag = "DROP TABLE";
  return out;
}

/// The table `name` when the session user may write it with `privilege`,
/// or, with none, change its catalog entry as its owner; else null, with
/// `out` failed.
TableData* Session::table_for(std::string_view name, const char* privilege,
                              StatementResult& out) {
  TableData* t = db_.find_table(name);
  if (!t) {
    no_such_relation(out, name);
  } else if (privilege ? !can_modify(*t, user_, privilege)
                       : user_ != "postgres" && user_ != t->owner) {
    fail_with(out, {"42501", (privilege ? "permission denied for table "
                                        : "must be owner of table ") +
                                 t->name});
    t = nullptr;
  }
  return t;
}

namespace {

/// The catalog's own copy of a statement's expression, bound against
/// `scope`: the statement's program printed and parsed again.
std::optional<Script> catalog_copy(const Node& e,
                                   std::span<const ScopeLevel> scope,
                                   StatementResult& out) {
  auto copy = parse_bound(to_sql(e), scope);
  if (copy.ok()) return std::move(copy.take());
  fail_with(out, {"42601", "internal: " + copy.error()});
  return std::nullopt;
}

}  // namespace

StatementResult Session::run_create_function(const CreateFunctionStmt& fn) {
  StatementResult out;
  if (!db_.info().supports_udf)
    return fail_with(out, {"0A000",
                           "unimplemented: user-defined functions are not "
                           "supported"});
  FunctionDef def;
  def.name = fn.name;
  def.nargs = fn.arg_types.size();
  if (fn.notice_format) def.notice_format = std::string(*fn.notice_format);
  for (const Node* a : fn.notice_args) {
    auto copy = catalog_copy(*a, {}, out);
    if (!copy) return out;
    def.notice_args.push_back(std::move(*copy));
  }
  if (fn.return_expr) {
    def.return_expr = catalog_copy(*fn.return_expr, {}, out);
    if (!def.return_expr) return out;
  }
  db_.functions_[def.name] = std::move(def);
  db_.note_schema_changed();
  out.command_tag = "CREATE FUNCTION";
  return out;
}

StatementResult Session::run_create_operator(const CreateOperatorStmt& op) {
  StatementResult out;
  if (!db_.info().supports_udf)
    return fail_with(out, {"0A000",
                           "unimplemented: user-defined operators are not "
                           "supported"});
  if (!db_.functions_.contains(op.procedure))
    return fail_with(out, {"42883", "function does not exist: " +
                                    std::string(op.procedure)});
  OperatorDef def;
  def.symbol = op.symbol;
  def.procedure = op.procedure;
  def.restrict_estimator = op.restrict_estimator;
  db_.operators_[def.symbol] = std::move(def);
  db_.note_schema_changed();
  out.command_tag = "CREATE OPERATOR";
  return out;
}

StatementResult Session::run_set(const SetStmt& set) {
  StatementResult out;
  std::string name = to_lower(set.name);
  std::string value = to_lower(set.value);
  if (starts_with(name, "transaction isolation level") ||
      name == "default_transaction_isolation") {
    constexpr std::string_view kPrefix = "transaction isolation level";
    std::string level = value;
    if (level.empty() && name.size() > kPrefix.size())
      level = std::string(trim(name.substr(kPrefix.size())));
    if (db_.info().forces_serializable && level != "serializable")
      return fail_with(out, {"0A000", "unimplemented: isolation level " +
                                          level +
                                          " (only serializable is supported)"});
    settings_["transaction_isolation"] = level;
    out.command_tag = "SET";
    return out;
  }
  settings_[name] = set.value;
  out.command_tag = "SET";
  return out;
}

StatementResult Session::run_grant(const GrantStmt& g) {
  StatementResult out;
  TableData* t = table_for(g.table, nullptr, out);
  if (!t) return out;
  t->grants[std::string(g.privilege)].emplace(g.grantee);
  db_.note_catalog_changed(*t);
  out.command_tag = "GRANT";
  return out;
}

StatementResult Session::run_alter_rls(const AlterTableRlsStmt& a) {
  StatementResult out;
  TableData* t = table_for(a.table, nullptr, out);
  if (!t) return out;
  t->rls_enabled = a.enable;
  db_.note_catalog_changed(*t);
  out.command_tag = "ALTER TABLE";
  return out;
}

StatementResult Session::run_create_policy(const CreatePolicyStmt& p) {
  StatementResult out;
  TableData* t = table_for(p.table, nullptr, out);
  if (!t) return out;
  const ScopeLevel scope[] = {{t->name, t}};
  auto copy = catalog_copy(*p.using_expr, scope, out);
  if (!copy) return out;
  t->policies.push_back(
      Policy{std::string(p.name), std::string(p.role), std::move(*copy)});
  db_.note_catalog_changed(*t);
  out.command_tag = "CREATE POLICY";
  return out;
}

}  // namespace rddr::sqldb
