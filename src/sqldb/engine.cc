#include "sqldb/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

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

void TableData::build_index(const std::string& column) {
  int idx = find_column(column);
  if (idx < 0) return;
  auto& map = hash_indexes[idx];
  map.clear();
  for (size_t i = 0; i < rows.size(); ++i) {
    const Datum& d = rows[i][static_cast<size_t>(idx)];
    if (d.type() == Type::kInt) map.emplace(d.as_int(), i);
  }
}

void TableData::index_appended(size_t first_new_row) {
  for (auto& [col, map] : hash_indexes) {
    for (size_t i = first_new_row; i < rows.size(); ++i) {
      const Datum& d = rows[i][static_cast<size_t>(col)];
      if (d.type() == Type::kInt) map.emplace(d.as_int(), i);
    }
  }
}

void TableData::rebuild_indexes() {
  for (auto& [col, map] : hash_indexes) {
    map.clear();
    for (size_t i = 0; i < rows.size(); ++i) {
      const Datum& d = rows[i][static_cast<size_t>(col)];
      if (d.type() == Type::kInt) map.emplace(d.as_int(), i);
    }
  }
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

TableData* Database::find_table(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const TableData* Database::find_table(const std::string& name) const {
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

bool expr_has_aggregate(const Expr& e) {
  if (e.kind == ExprKind::kAggregate) return true;
  for (const auto& a : e.args)
    if (a && expr_has_aggregate(*a)) return true;
  return false;
}

Datum coerce(Datum d, Type target) {
  if (d.is_null()) return d;
  if (d.type() == target) return d;
  switch (target) {
    case Type::kInt:
      if (d.type() == Type::kFloat)
        return Datum::integer(static_cast<int64_t>(std::llround(d.as_float())));
      if (d.type() == Type::kText) {
        auto v = parse_i64(d.as_text());
        return v ? Datum::integer(*v) : d;
      }
      if (d.type() == Type::kBool) return Datum::integer(d.as_bool() ? 1 : 0);
      return d;
    case Type::kFloat:
      if (d.type() == Type::kInt) return Datum::floating(static_cast<double>(d.as_int()));
      if (d.type() == Type::kText) {
        auto v = parse_f64(d.as_text());
        return v ? Datum::floating(*v) : d;
      }
      return d;
    case Type::kText:
      return Datum::text(d.to_text());
    case Type::kBool:
      if (d.type() == Type::kInt) return Datum::boolean(d.as_int() != 0);
      if (d.type() == Type::kText)
        return Datum::boolean(d.as_text() == "t" || d.as_text() == "true");
      return d;
    default:
      return d;
  }
}

/// The value an evaluation returned, moved out of `tmp` when it lives
/// there and copied otherwise.
Datum take(const Datum* v, Datum& tmp) {
  if (v == &tmp) return std::move(tmp);
  return *v;
}

/// Ends a statement with the evaluator's error.
StatementResult fail_with(StatementResult& out, const SqlError& e) {
  out.error_sqlstate = e.sqlstate;
  out.error_message = e.message;
  return std::move(out);
}

}  // namespace

// ---------- session ----------

Session::Session(Database& db, std::string user)
    : db_(db), user_(std::move(user)) {
  settings_["client_min_messages"] = "notice";
}

std::string Session::setting(std::string_view name) const {
  auto it = settings_.find(name);
  return it == settings_.end() ? "" : it->second;
}

ExecResult Session::execute(std::string_view sql) {
  ExecResult result;
  auto parsed = parse_sql(sql);
  if (!parsed.ok()) {
    StatementResult sr;
    sr.error_sqlstate = "42601";
    sr.error_message = parsed.error();
    result.statements.push_back(std::move(sr));
    return result;
  }
  for (const auto& st : parsed.value()) {
    StatementResult sr = run_statement(st);
    bool failed = sr.failed();
    result.rows_scanned += sr.rows_scanned;
    result.statements.push_back(std::move(sr));
    if (failed) break;  // simple-protocol scripts abort at first error
  }
  return result;
}

StatementResult Session::run_statement(const Statement& st) {
  using K = Statement::Kind;
  switch (st.kind) {
    case K::kSelect: return run_select(*st.select, false, false);
    case K::kInsert: return run_insert(*st.insert);
    case K::kUpdate: return run_update(*st.update);
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
      return run_select(*st.explain->select, true, st.explain->costs_off);
    case K::kTxn: {
      StatementResult sr;
      sr.command_tag = to_upper(st.txn->keyword);
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

/// Resolves the first "col = <int literal>" conjunct of `e` that a
/// hash index covers, visiting AND operands right to left. Returns the
/// matching row ordinals (sorted, so scan order stays deterministic), or
/// nullopt for a full scan.
std::optional<std::vector<size_t>> index_candidates(const TableData& t,
                                                    const Expr* e) {
  if (!e || e->kind != ExprKind::kBinary) return std::nullopt;
  if (e->op == "and") {
    if (auto out = index_candidates(t, e->args[1].get())) return out;
    return index_candidates(t, e->args[0].get());
  }
  if (e->op != "=") return std::nullopt;
  const Expr* col = e->args[0].get();
  const Expr* lit = e->args[1].get();
  if (col->kind == ExprKind::kLiteral) std::swap(col, lit);
  if (col->kind != ExprKind::kColumnRef || lit->kind != ExprKind::kLiteral ||
      lit->literal.type() != Type::kInt)
    return std::nullopt;
  int ci = t.find_column(col->column);
  if (ci < 0) return std::nullopt;
  auto it = t.hash_indexes.find(ci);
  if (it == t.hash_indexes.end()) return std::nullopt;
  auto [b, end] = it->second.equal_range(lit->literal.as_int());
  std::vector<size_t> out;
  for (auto i = b; i != end; ++i) out.push_back(i->second);
  std::sort(out.begin(), out.end());
  return out;
}

/// Planner statistics probe: the CVE site. Selectivity estimation for
/// user-defined operators with a `restrict` estimator evaluates the
/// operator's procedure over sampled column values. Which rows may be
/// sampled depends on the engine build:
///   - privilege unchecked (CVE-2017-7484) on vulnerable builds;
///   - RLS unchecked (CVE-2019-10130) on vulnerable builds.
/// Visits `e` bottom-up, probing every such operator it contains.
void probe_statistics(const Database& db, const std::string& user,
                      const Expr& e, std::span<const ScopeLevel> from,
                      StatementResult& out) {
  for (const auto& a : e.args)
    if (a) probe_statistics(db, user, *a, from, out);
  if (e.kind != ExprKind::kBinary) return;
  auto oit = db.operators().find(e.op);
  if (oit == db.operators().end()) return;
  if (oit->second.restrict_estimator.empty()) return;
  auto fit = db.functions().find(oit->second.procedure);
  if (fit == db.functions().end()) return;
  // Identify the column operand and its table.
  const Expr* col_expr = nullptr;
  const Expr* other = nullptr;
  if (e.args[0]->kind == ExprKind::kColumnRef) {
    col_expr = e.args[0].get();
    other = e.args[1].get();
  } else if (e.args[1]->kind == ExprKind::kColumnRef) {
    col_expr = e.args[1].get();
    other = e.args[0].get();
  } else {
    return;
  }
  const TableData* table = nullptr;
  size_t col_idx = 0;
  for (const auto& level : from) {
    if (!col_expr->table.empty() && *level.alias != col_expr->table) continue;
    int idx = level.table->find_column(col_expr->column);
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
  bool col_on_left = col_expr == e.args[0].get();
  // Sample rows; RLS gate (fixed in 10.8+ for CVE-2019-10130).
  Evaluator ev(db, user, &out.notices);
  bool rls = rls_applies(*table, user) && !db.info().vulns.stats_leak_ignores_rls;
  std::vector<BoundExpr> policies;
  if (rls) policies = ev.bind_policies(*table);
  size_t sampled = 0;
  for (const auto& row : table->rows) {
    if (sampled >= kStatsSampleRows) break;
    if (rls) {
      bool visible = false;
      if (!ev.row_visible(policies, row, visible) || !visible) {
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

/// Moves row `ordinal` from `before` to `after` in a hash index on one of
/// its columns (only integer keys are indexed).
void reindex_row(std::unordered_multimap<int64_t, size_t>& index,
                 size_t ordinal, const Datum& before, const Datum& after) {
  bool had = before.type() == Type::kInt;
  bool has = after.type() == Type::kInt;
  if (had && has && before.as_int() == after.as_int()) return;
  if (had) {
    auto [b, end] = index.equal_range(before.as_int());
    for (auto it = b; it != end; ++it)
      if (it->second == ordinal) {
        index.erase(it);
        break;
      }
  }
  if (has) index.emplace(after.as_int(), ordinal);
}

}  // namespace

// ---------- Access path ----------

/// The row ordinals one pass over a table visits, ascending: the
/// hash-index candidates of its WHERE clause, or every row when no index
/// applies. SELECT, UPDATE and DELETE all walk their table through it, so
/// a WHERE clause is evaluated only on the rows the access path visits.
struct Session::AccessPath {
  std::optional<std::vector<size_t>> candidates;  // nullopt: heap scan
  size_t heap_rows = 0;

  size_t size() const { return candidates ? candidates->size() : heap_rows; }
  size_t operator[](size_t i) const {
    return candidates ? (*candidates)[i] : i;
  }
};

Session::AccessPath Session::open_scan(const TableData& t, const Expr* where) {
  AccessPath path{index_candidates(t, where), t.rows.size()};
  // Buffer-pool modeling: tell the storage layer which pages this pass
  // touches (all of them for a heap scan, just the candidates' pages for
  // an index probe).
  db_.note_scan(t, path.candidates ? &*path.candidates : nullptr);
  return path;
}

// ---------- SELECT ----------

StatementResult Session::run_select(const SelectStmt& sel, bool explain_only,
                                    bool costs_off) {
  (void)costs_off;  // cost output is always off in this engine
  StatementResult out;
  out.is_rowset = true;

  // Resolve FROM tables; expressions see them as scope levels, in order.
  std::vector<ScopeLevel> from;
  from.reserve(sel.from.size());
  for (const auto& tr : sel.from) {
    const TableData* t = db_.find_table(tr.table);
    if (!t) {
      out.error_sqlstate = "42P01";
      out.error_message = "relation does not exist: " + tr.table;
      return out;
    }
    from.push_back(ScopeLevel{&tr.alias, t});
  }
  const size_t width = from.size();

  if (sel.where) probe_statistics(db_, user_, *sel.where, from, out);

  if (explain_only) {
    out.columns = {"QUERY PLAN"};
    for (size_t i = 0; i < width; ++i) {
      std::string line = (i == 0 ? "Seq Scan on " : "  Nested Loop join with ")
                         + sel.from[i].table;
      out.rows.push_back({line});
      if (sel.from[i].join_on)
        out.rows.push_back({"    Join Filter: " + sel.from[i].join_on->to_string()});
    }
    if (from.empty()) out.rows.push_back({"Result"});
    if (sel.where) out.rows.push_back({"  Filter: " + sel.where->to_string()});
    out.command_tag = "EXPLAIN";
    return out;
  }

  // Privilege checks happen *after* planning — that ordering is the
  // CVE-2017-7484 leak-before-denial behaviour.
  for (const auto& level : from) {
    if (!can_select(*level.table, user_)) {
      out.error_sqlstate = "42501";
      out.error_message = "permission denied for table " + level.table->name;
      return out;
    }
  }

  // Determine grouping.
  bool has_agg = !sel.group_by.empty();
  for (const auto& item : sel.items)
    if (item.expr && expr_has_aggregate(*item.expr)) has_agg = true;
  if (sel.having) has_agg = true;

  // Output column names.
  auto derive_name = [](const SelectItem& item) -> std::string {
    if (!item.alias.empty()) return item.alias;
    if (!item.expr) return "?column?";
    if (item.expr->kind == ExprKind::kColumnRef) return item.expr->column;
    if (item.expr->kind == ExprKind::kAggregate ||
        item.expr->kind == ExprKind::kFuncCall)
      return item.expr->func_name;
    return "?column?";
  };

  for (const auto& item : sel.items) {
    if (item.star) {
      for (const auto& level : from)
        for (const auto& col : level.table->columns) out.columns.push_back(col.name);
    } else {
      out.columns.push_back(derive_name(item));
    }
  }

  // ---- Bind every expression once, against the levels it can see. ----
  Evaluator ev(db_, user_, &out.notices);
  const BoundExpr where = sel.where ? ev.bind(*sel.where, from) : kNoExpr;
  struct LevelPlan {
    BoundExpr join_on = kNoExpr;  // sees levels [0, this one]
    bool rls = false;
    std::vector<BoundExpr> policies;
  };
  std::vector<LevelPlan> levels(width);
  for (size_t l = 0; l < width; ++l) {
    if (sel.from[l].join_on)
      levels[l].join_on =
          ev.bind(*sel.from[l].join_on, std::span(from).first(l + 1));
    levels[l].rls = rls_applies(*from[l].table, user_);
    if (levels[l].rls) levels[l].policies = ev.bind_policies(*from[l].table);
  }
  std::vector<BoundExpr> items;
  items.reserve(sel.items.size());
  for (const auto& item : sel.items)
    items.push_back(item.star ? kNoExpr : ev.bind(*item.expr, from));
  std::vector<BoundExpr> group_by;
  for (const auto& g : sel.group_by) group_by.push_back(ev.bind(*g, from));
  const BoundExpr having = sel.having ? ev.bind(*sel.having, from) : kNoExpr;
  std::vector<BoundExpr> order_by;
  for (const auto& oi : sel.order_by) order_by.push_back(ev.bind(*oi.expr, from));

  // ---- Build the joined, filtered row stream. ----
  std::vector<const Row*> matches;  // `width` row pointers per match
  size_t n_matches = 0;
  std::vector<const Row*> acc(width);
  auto scan = [&](auto& self, size_t level) -> bool {
    if (level == width) {
      if (where != kNoExpr) {
        Datum tmp;
        const Datum* v = ev.eval(where, acc.data(), tmp);
        if (!v) return false;
        if (!datum_is_true(*v)) return true;
      }
      matches.insert(matches.end(), acc.begin(), acc.end());
      ++n_matches;
      return true;
    }
    const TableData& t = *from[level].table;
    const LevelPlan& plan = levels[level];
    // Only a single-table query narrows its scan through an index; a
    // join level scans its whole table once per outer row.
    const AccessPath path =
        open_scan(t, level == 0 && width == 1 ? sel.where.get() : nullptr);
    for (size_t i = 0; i < path.size(); ++i) {
      const Row& row = t.rows[path[i]];
      out.rows_scanned += 1;
      if (plan.rls) {
        bool visible = false;
        if (!ev.row_visible(plan.policies, row, visible)) return false;
        if (!visible) continue;
      }
      acc[level] = &row;
      // Apply the JOIN ON condition as soon as its table is in scope.
      if (plan.join_on != kNoExpr) {
        Datum tmp;
        const Datum* v = ev.eval(plan.join_on, acc.data(), tmp);
        if (!v) return false;
        if (!datum_is_true(*v)) continue;
      }
      if (!self(self, level + 1)) return false;
    }
    return true;
  };
  if (width == 0) {
    n_matches = 1;  // SELECT <exprs> without FROM: one row, nothing in scope
  } else if (!scan(scan, 0)) {
    return fail_with(out, ev.error());
  }
  auto match_rows = [&](size_t m) -> const Row* const* {
    return width ? matches.data() + m * width : nullptr;
  };

  struct ResultRow {
    std::vector<Datum> values;      // projected
    std::vector<Datum> order_keys;  // evaluated ORDER BY keys
    size_t match = 0;               // source rows (non-grouped path)
  };
  std::vector<ResultRow> results;

  if (!has_agg) {
    results.reserve(n_matches);
    for (size_t m = 0; m < n_matches; ++m) {
      const Row* const* rows = match_rows(m);
      ResultRow rr;
      rr.match = m;
      rr.values.reserve(out.columns.size());
      for (size_t i = 0; i < sel.items.size(); ++i) {
        if (sel.items[i].star) {
          for (size_t l = 0; l < width; ++l)
            rr.values.insert(rr.values.end(), rows[l]->begin(), rows[l]->end());
          continue;
        }
        Datum tmp;
        const Datum* v = ev.eval(items[i], rows, tmp);
        if (!v) return fail_with(out, ev.error());
        rr.values.push_back(take(v, tmp));
      }
      results.push_back(std::move(rr));
    }
  } else {
    // ---- Grouped / aggregated path. ----
    struct Group {
      std::vector<Datum> keys;
      std::vector<size_t> members;  // match numbers
    };
    std::vector<Group> groups;
    std::unordered_map<size_t, std::vector<size_t>> index;  // hash -> group ids
    for (size_t m = 0; m < n_matches; ++m) {
      std::vector<Datum> keys;
      for (BoundExpr g : group_by) {
        Datum tmp;
        const Datum* v = ev.eval(g, match_rows(m), tmp);
        if (!v) return fail_with(out, ev.error());
        keys.push_back(take(v, tmp));
      }
      size_t h = 1469598103u;
      for (const auto& k : keys) h = h * 1099511628211ull ^ k.hash();
      Group* grp = nullptr;
      for (size_t gid : index[h]) {
        bool equal = true;
        for (size_t i = 0; i < keys.size(); ++i)
          if (!groups[gid].keys[i].group_equal(keys[i])) {
            equal = false;
            break;
          }
        if (equal) {
          grp = &groups[gid];
          break;
        }
      }
      if (!grp) {
        index[h].push_back(groups.size());
        groups.push_back(Group{std::move(keys), {}});
        grp = &groups.back();
      }
      grp->members.push_back(m);
    }
    if (groups.empty() && sel.group_by.empty()) {
      // Aggregate over an empty input still yields one row (COUNT = 0).
      groups.push_back(Group{});
    }

    for (const auto& grp : groups) {
      const GroupRows rows{matches.data(), width, grp.members.data(),
                           grp.members.size()};
      // HAVING filter.
      if (having != kNoExpr) {
        Datum tmp;
        const Datum* v = ev.eval_group(having, rows, tmp);
        if (!v) return fail_with(out, ev.error());
        if (!datum_is_true(*v)) continue;
      }
      ResultRow rr;
      for (size_t i = 0; i < sel.items.size(); ++i) {
        if (sel.items[i].star) {
          out.error_sqlstate = "42803";
          out.error_message = "SELECT * not allowed with GROUP BY";
          return out;
        }
        Datum tmp;
        const Datum* v = ev.eval_group(items[i], rows, tmp);
        if (!v) return fail_with(out, ev.error());
        rr.values.push_back(take(v, tmp));
      }
      results.push_back(std::move(rr));
    }
  }

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
      const Expr& e = *oi.expr;
      if (e.kind == ExprKind::kLiteral && e.literal.type() == Type::kInt) {
        int pos = static_cast<int>(e.literal.as_int());
        if (pos < 1 || pos > static_cast<int>(out.columns.size())) {
          out.error_sqlstate = "42P10";
          out.error_message = "ORDER BY position out of range";
          return out;
        }
        ks.select_index = pos - 1;
      } else {
        // Alias or expression match against select items.
        std::string estr = e.to_string();
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
            if ((e.kind == ExprKind::kColumnRef && e.table.empty() &&
                 item.alias == e.column) ||
                (item.expr && item.expr->to_string() == estr)) {
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
    for (auto& rr : results) {
      for (size_t k = 0; k < specs.size(); ++k) {
        if (specs[k].select_index >= 0) {
          rr.order_keys.push_back(rr.values[static_cast<size_t>(specs[k].select_index)]);
        } else if (!has_agg && width > 0) {
          Datum tmp;
          const Datum* v = ev.eval(order_by[k], match_rows(rr.match), tmp);
          if (!v) return fail_with(out, ev.error());
          rr.order_keys.push_back(take(v, tmp));
        } else {
          out.error_sqlstate = "42803";
          out.error_message =
              "ORDER BY expression must appear in the select list for "
              "aggregate queries";
          return out;
        }
      }
    }
    std::stable_sort(results.begin(), results.end(),
                     [&](const ResultRow& a, const ResultRow& b) {
                       for (size_t i = 0; i < specs.size(); ++i) {
                         auto c = a.order_keys[i].compare(b.order_keys[i]);
                         int cv;
                         if (!c) {
                           // NULLS LAST (asc) / FIRST (desc), like Postgres.
                           bool an = a.order_keys[i].is_null();
                           bool bn = b.order_keys[i].is_null();
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
    std::sort(results.begin(), results.end(),
              [](const ResultRow& a, const ResultRow& b) {
                for (size_t i = 0; i < a.values.size() && i < b.values.size();
                     ++i) {
                  auto c = a.values[i].compare(b.values[i]);
                  if (!c) {
                    bool an = a.values[i].is_null(), bn = b.values[i].is_null();
                    if (an != bn) return bn;
                    continue;
                  }
                  if (*c != 0) return *c < 0;
                }
                return false;
              });
  }

  if (sel.limit && static_cast<int64_t>(results.size()) > *sel.limit)
    results.resize(static_cast<size_t>(*sel.limit));

  for (const auto& rr : results) {
    std::vector<std::optional<std::string>> row;
    for (const auto& d : rr.values) {
      if (d.is_null()) row.push_back(std::nullopt);
      else row.push_back(d.to_text());
    }
    out.rows.push_back(std::move(row));
  }
  out.command_tag = "SELECT " + std::to_string(out.rows.size());
  return out;
}

// ---------- DML / DDL ----------

StatementResult Session::run_insert(const InsertStmt& ins) {
  StatementResult out;
  TableData* t = db_.find_table(ins.table);
  if (!t) {
    out.error_sqlstate = "42P01";
    out.error_message = "relation does not exist: " + ins.table;
    return out;
  }
  if (!can_modify(*t, user_, "INSERT")) {
    out.error_sqlstate = "42501";
    out.error_message = "permission denied for table " + t->name;
    return out;
  }
  std::vector<int> target_cols;
  if (ins.columns.empty()) {
    for (size_t i = 0; i < t->columns.size(); ++i)
      target_cols.push_back(static_cast<int>(i));
  } else {
    for (const auto& c : ins.columns) {
      int idx = t->find_column(c);
      if (idx < 0) {
        out.error_sqlstate = "42703";
        out.error_message = "column does not exist: " + c;
        return out;
      }
      target_cols.push_back(idx);
    }
  }
  Evaluator ev(db_, user_, &out.notices);
  for (const auto& row_exprs : ins.rows) {
    if (row_exprs.size() != target_cols.size()) {
      out.error_sqlstate = "42601";
      out.error_message = "INSERT value count does not match column count";
      return out;
    }
    Row row(t->columns.size());  // defaults to NULL
    for (size_t i = 0; i < row_exprs.size(); ++i) {
      Datum tmp;
      const Datum* v = ev.eval_constant(*row_exprs[i], tmp);
      if (!v) return fail_with(out, ev.error());
      size_t col = static_cast<size_t>(target_cols[i]);
      row[col] = coerce(take(v, tmp), t->columns[col].type);
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

StatementResult Session::run_update(const UpdateStmt& up) {
  StatementResult out;
  TableData* t = db_.find_table(up.table);
  if (!t) {
    out.error_sqlstate = "42P01";
    out.error_message = "relation does not exist: " + up.table;
    return out;
  }
  if (!can_modify(*t, user_, "UPDATE")) {
    out.error_sqlstate = "42501";
    out.error_message = "permission denied for table " + t->name;
    return out;
  }
  Evaluator ev(db_, user_, &out.notices);
  const ScopeLevel scope[] = {{&t->name, t}};
  struct SetTarget {
    size_t column;
    BoundExpr value;
    std::unordered_multimap<int64_t, size_t>* index;  // null: not indexed
  };
  std::vector<SetTarget> sets;
  sets.reserve(up.sets.size());
  for (const auto& [col, expr] : up.sets) {
    int idx = t->find_column(col);
    if (idx < 0) {
      out.error_sqlstate = "42703";
      out.error_message = "column does not exist: " + col;
      return out;
    }
    auto it = t->hash_indexes.find(idx);
    sets.push_back(SetTarget{static_cast<size_t>(idx), ev.bind(*expr, scope),
                             it == t->hash_indexes.end() ? nullptr : &it->second});
  }
  const BoundExpr where = up.where ? ev.bind(*up.where, scope) : kNoExpr;
  const bool rls = rls_applies(*t, user_);
  std::vector<BoundExpr> policies;
  if (rls) policies = ev.bind_policies(*t);
  int64_t updated = 0;
  // The candidates are fixed before any SET runs, so a row whose indexed
  // column moves is visited once, as in a heap scan.
  const AccessPath path = open_scan(*t, up.where.get());
  for (size_t i = 0; i < path.size(); ++i) {
    const size_t ordinal = path[i];
    Row& row = t->rows[ordinal];
    const Row* rows[] = {&row};
    out.rows_scanned += 1;
    if (rls) {
      bool visible = false;
      if (!ev.row_visible(policies, row, visible)) {
        ev.clear_error();  // a failing policy hides the row
        continue;
      }
      if (!visible) continue;
    }
    if (where != kNoExpr) {
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
      if (!v) {
        if (i > 0) db_.note_row_updated(*t, ordinal);
        return fail_with(out, ev.error());
      }
      Datum value = coerce(take(v, tmp), t->columns[set.column].type);
      if (set.index) reindex_row(*set.index, ordinal, row[set.column], value);
      row[set.column] = std::move(value);
    }
    ++updated;
    db_.note_row_updated(*t, ordinal);
  }
  out.command_tag = "UPDATE " + std::to_string(updated);
  return out;
}

StatementResult Session::run_delete(const DeleteStmt& del) {
  StatementResult out;
  TableData* t = db_.find_table(del.table);
  if (!t) {
    out.error_sqlstate = "42P01";
    out.error_message = "relation does not exist: " + del.table;
    return out;
  }
  if (!can_modify(*t, user_, "DELETE")) {
    out.error_sqlstate = "42501";
    out.error_message = "permission denied for table " + t->name;
    return out;
  }
  Evaluator ev(db_, user_, &out.notices);
  const ScopeLevel scope[] = {{&t->name, t}};
  const BoundExpr where = del.where ? ev.bind(*del.where, scope) : kNoExpr;
  const bool rls = rls_applies(*t, user_);
  std::vector<BoundExpr> policies;
  if (rls) policies = ev.bind_policies(*t);
  // Decide every row first, so a failing WHERE leaves the table as it was.
  std::vector<bool> doomed(t->rows.size());
  int64_t deleted = 0;
  size_t first_removed = t->rows.size();
  const AccessPath path = open_scan(*t, del.where.get());
  for (size_t i = 0; i < path.size(); ++i) {
    const size_t ordinal = path[i];
    const Row* rows[] = {&t->rows[ordinal]};
    out.rows_scanned += 1;
    bool remove = true;
    if (rls) {
      bool visible = false;
      remove = ev.row_visible(policies, *rows[0], visible) && visible;
      ev.clear_error();  // a failing policy keeps the row
    }
    if (remove && where != kNoExpr) {
      Datum tmp;
      const Datum* v = ev.eval(where, rows, tmp);
      if (!v) return fail_with(out, ev.error());
      remove = datum_is_true(*v);
    }
    if (!remove) continue;
    doomed[ordinal] = true;
    if (++deleted == 1) first_removed = ordinal;
  }
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
  if (db_.find_table(ct.table)) {
    out.error_sqlstate = "42P07";
    out.error_message = "relation already exists: " + ct.table;
    return out;
  }
  std::vector<Column> cols;
  for (const auto& c : ct.columns) cols.push_back(Column{c.name, c.type});
  TableData* t = db_.create_table(ct.table, std::move(cols));
  t->owner = user_;  // covered by create_table's listener notification
  out.command_tag = "CREATE TABLE";
  return out;
}

StatementResult Session::run_drop_table(const DropTableStmt& d) {
  StatementResult out;
  TableData* t = db_.find_table(d.table);
  if (!t) {
    if (d.if_exists) {
      out.command_tag = "DROP TABLE";
      out.notices.push_back("table \"" + d.table + "\" does not exist, skipping");
      return out;
    }
    out.error_sqlstate = "42P01";
    out.error_message = "relation does not exist: " + d.table;
    return out;
  }
  if (user_ != "postgres" && user_ != t->owner) {
    out.error_sqlstate = "42501";
    out.error_message = "must be owner of table " + d.table;
    return out;
  }
  db_.tables_.erase(d.table);
  db_.note_table_dropped(d.table);
  out.command_tag = "DROP TABLE";
  return out;
}

StatementResult Session::run_create_function(const CreateFunctionStmt& fn) {
  StatementResult out;
  if (!db_.info().supports_udf) {
    out.error_sqlstate = "0A000";
    out.error_message =
        "unimplemented: user-defined functions are not supported";
    return out;
  }
  FunctionDef def;
  def.name = fn.name;
  def.nargs = fn.arg_types.size();
  def.notice_format = fn.notice_format;
  for (const auto& a : fn.notice_args) {
    // Deep-copy via re-parse of the printed form (exprs are move-only).
    auto copy = parse_expression(a->to_string());
    if (!copy.ok()) {
      out.error_sqlstate = "42601";
      out.error_message = "internal: " + copy.error();
      return out;
    }
    def.notice_args.push_back(std::move(copy.take()));
  }
  if (fn.return_expr) {
    auto copy = parse_expression(fn.return_expr->to_string());
    if (!copy.ok()) {
      out.error_sqlstate = "42601";
      out.error_message = "internal: " + copy.error();
      return out;
    }
    def.return_expr = std::move(copy.take());
  }
  db_.functions_[def.name] = std::move(def);
  db_.note_schema_changed();
  out.command_tag = "CREATE FUNCTION";
  return out;
}

StatementResult Session::run_create_operator(const CreateOperatorStmt& op) {
  StatementResult out;
  if (!db_.info().supports_udf) {
    out.error_sqlstate = "0A000";
    out.error_message =
        "unimplemented: user-defined operators are not supported";
    return out;
  }
  if (db_.functions_.find(op.procedure) == db_.functions_.end()) {
    out.error_sqlstate = "42883";
    out.error_message = "function does not exist: " + op.procedure;
    return out;
  }
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
    if (db_.info().forces_serializable && level != "serializable") {
      out.error_sqlstate = "0A000";
      out.error_message = "unimplemented: isolation level " + level +
                          " (only serializable is supported)";
      return out;
    }
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
  TableData* t = db_.find_table(g.table);
  if (!t) {
    out.error_sqlstate = "42P01";
    out.error_message = "relation does not exist: " + g.table;
    return out;
  }
  if (user_ != "postgres" && user_ != t->owner) {
    out.error_sqlstate = "42501";
    out.error_message = "must be owner of table " + g.table;
    return out;
  }
  t->grants[g.privilege].insert(g.grantee);
  db_.note_catalog_changed(*t);
  out.command_tag = "GRANT";
  return out;
}

StatementResult Session::run_alter_rls(const AlterTableRlsStmt& a) {
  StatementResult out;
  TableData* t = db_.find_table(a.table);
  if (!t) {
    out.error_sqlstate = "42P01";
    out.error_message = "relation does not exist: " + a.table;
    return out;
  }
  if (user_ != "postgres" && user_ != t->owner) {
    out.error_sqlstate = "42501";
    out.error_message = "must be owner of table " + a.table;
    return out;
  }
  t->rls_enabled = a.enable;
  db_.note_catalog_changed(*t);
  out.command_tag = "ALTER TABLE";
  return out;
}

StatementResult Session::run_create_policy(const CreatePolicyStmt& p) {
  StatementResult out;
  TableData* t = db_.find_table(p.table);
  if (!t) {
    out.error_sqlstate = "42P01";
    out.error_message = "relation does not exist: " + p.table;
    return out;
  }
  if (user_ != "postgres" && user_ != t->owner) {
    out.error_sqlstate = "42501";
    out.error_message = "must be owner of table " + p.table;
    return out;
  }
  Policy pol;
  pol.name = p.name;
  pol.role = p.role;
  auto copy = parse_expression(p.using_expr->to_string());
  if (!copy.ok()) {
    out.error_sqlstate = "42601";
    out.error_message = "internal: " + copy.error();
    return out;
  }
  pol.using_expr = std::move(copy.take());
  t->policies.push_back(std::move(pol));
  db_.note_catalog_changed(*t);
  out.command_tag = "CREATE POLICY";
  return out;
}

}  // namespace rddr::sqldb
