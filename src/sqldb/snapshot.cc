#include "sqldb/snapshot.h"

#include "common/strutil.h"
#include "sqldb/codec.h"
#include "sqldb/eval.h"

namespace rddr::sqldb {

namespace {

// Escaping and datum encoding live in sqldb/codec.h — shared with the
// storage engine's page/WAL text forms and the resync delta format.

bool fail(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

// One table's catalog records: T, then its C, G, P and X records.
void write_table_catalog(const TableData& t, std::string& out) {
  out += "T " + escape_field(t.name) + "\t" + escape_field(t.owner) + "\t" +
         (t.rls_enabled ? "1" : "0") + "\n";
  for (const auto& c : t.columns)
    out += strformat("C %s\t%d\n", escape_field(c.name).c_str(),
                     static_cast<int>(c.type));
  for (const auto& [priv, users] : t.grants)
    for (const auto& u : users)
      out += "G " + escape_field(priv) + "\t" + escape_field(u) + "\n";
  for (const auto& p : t.policies)
    out += "P " + escape_field(p.name) + "\t" + escape_field(p.role) + "\t" +
           escape_field(to_sql(p.using_expr.expression())) + "\n";
  for (const auto& [col, index] : t.hash_indexes) {
    (void)index;
    if (col >= 0 && static_cast<size_t>(col) < t.columns.size())
      out += "X " + escape_field(t.columns[static_cast<size_t>(col)].name) +
             "\n";
  }
}

// The database-level catalog records: F (UDFs), then O (operators).
void write_routines(const Database& db, std::string& out) {
  for (const auto& [name, fn] : db.functions()) {
    out += "F " + escape_field(name) +
           strformat("\t%zu\t%d\t", fn.nargs, fn.notice_format ? 1 : 0) +
           escape_field(fn.notice_format ? *fn.notice_format : "") +
           strformat("\t%zu", fn.notice_args.size());
    for (const auto& a : fn.notice_args) {
      out += '\t';
      out += escape_field(to_sql(a.expression()));
    }
    out += strformat("\t%d\t", fn.return_expr ? 1 : 0) +
           escape_field(fn.return_expr ? to_sql(fn.return_expr->expression())
                                       : "") +
           "\n";
  }
  for (const auto& [symbol, op] : db.operators()) {
    out += "O " + escape_field(symbol) + "\t" + escape_field(op.procedure) +
           "\t" + escape_field(op.restrict_estimator) + "\n";
  }
}

}  // namespace

std::string snapshot_database(const Database& db) {
  std::string out = "RDDRSNAP 1\n";
  out += "# engine " + db.info().product + " " + db.info().version + "\n";
  for (const auto& [name, t] : db.tables()) {
    write_table_catalog(t, out);
    for (const auto& row : t.rows) {
      out += "R ";
      append_row(out, row);
      out += '\n';
    }
  }
  write_routines(db, out);
  return out;
}

std::string catalog_records(const Database& db) {
  std::string out;
  for (const auto& [name, t] : db.tables()) write_table_catalog(t, out);
  write_routines(db, out);
  return out;
}

// Loads records into a Database. A friend of Database: a load replaces
// its private contents wholesale rather than through statements.
struct SnapshotReader {
  // Empties `db`, runs `load` on it, and empties it again if the load
  // fails: a failed load must not leave a half-warmed mix of old and new
  // state. A replacement is not a statement-level mutation, so the
  // listener is muted for the duration (the storage engine re-adopts the
  // contents afterwards).
  template <typename Load>
  static bool replace(Database& db, Load&& load) {
    MutationListener* saved_listener = db.listener_;
    db.listener_ = nullptr;
    clear(db);
    bool ok = load();
    if (!ok) clear(db);
    db.listener_ = saved_listener;
    return ok;
  }

  static void clear(Database& db) {
    db.tables_.clear();
    db.functions_.clear();
    db.operators_.clear();
  }

  // Parses the records in lines[first, end) into the emptied `db`. With
  // `rows` set, each table takes its rows from there and R records are
  // refused; otherwise rows come from R records.
  static bool load(Database& db, const std::vector<std::string>& lines,
                   size_t first, TableRows* rows, std::string* error);
};

bool restore_database(Database& db, std::string_view snapshot,
                      std::string* error) {
  return SnapshotReader::replace(db, [&] {
    auto lines = split_lines(snapshot);
    if (lines.empty()) return fail(error, "snapshot: empty input");
    if (lines[0] != "RDDRSNAP 1") {
      // Distinguish a future/garbled version stamp from plain garbage: the
      // operator story differs (upgrade skew vs corrupt transfer).
      if (lines[0].rfind("RDDRSNAP ", 0) == 0)
        return fail(error,
                    "snapshot: unsupported version '" + lines[0] + "'");
      return fail(error, "snapshot: bad header");
    }
    // Writers always terminate with a newline, so a missing one means the
    // transfer was cut mid-record — reject before parsing a half row as a
    // (smaller, valid-looking) table.
    if (snapshot.back() != '\n')
      return fail(error, "snapshot: truncated input");
    return SnapshotReader::load(db, lines, 1, nullptr, error);
  });
}

bool install_database(Database& db, std::string_view catalog, TableRows rows,
                      std::string* error) {
  return SnapshotReader::replace(db, [&] {
    return SnapshotReader::load(db, split_lines(catalog), 0, &rows, error);
  });
}

bool SnapshotReader::load(Database& db, const std::vector<std::string>& lines,
                          size_t first, TableRows* rows, std::string* error) {
  TableData* table = nullptr;
  // Index builds are deferred until all rows are in.
  std::vector<std::pair<std::string, std::string>> indexes;  // table, column

  for (size_t ln = first; ln < lines.size(); ++ln) {
    const std::string& line = lines[ln];
    if (line.empty() || line[0] == '#') continue;
    if (line.size() < 2 || line[1] != ' ')
      return fail(error, strformat("snapshot line %zu: bad record", ln + 1));
    const char rec = line[0];
    auto fields = split(std::string_view(line).substr(2), '\t');
    switch (rec) {
      case 'T': {
        if (fields.size() != 3)
          return fail(error, strformat("snapshot line %zu: bad table", ln + 1));
        table = db.create_table(unescape_field(fields[0]), {});
        table->owner = unescape_field(fields[1]);
        table->rls_enabled = fields[2] == "1";
        break;
      }
      case 'C': {
        if (!table || fields.size() != 2)
          return fail(error, strformat("snapshot line %zu: bad column", ln + 1));
        auto code = parse_i64(fields[1]);
        if (!code || *code < 0 || *code > static_cast<int>(Type::kText))
          return fail(error, strformat("snapshot line %zu: bad type", ln + 1));
        table->columns.push_back(
            Column{unescape_field(fields[0]), static_cast<Type>(*code)});
        break;
      }
      case 'G': {
        if (!table || fields.size() != 2)
          return fail(error, strformat("snapshot line %zu: bad grant", ln + 1));
        table->grants[unescape_field(fields[0])].insert(
            unescape_field(fields[1]));
        break;
      }
      case 'P': {
        if (!table || fields.size() != 3)
          return fail(error, strformat("snapshot line %zu: bad policy", ln + 1));
        const ScopeLevel scope[] = {{table->name, table}};
        auto parsed = parse_bound(unescape_field(fields[2]), scope);
        if (!parsed.ok())
          return fail(error, "snapshot: policy expr: " + parsed.error());
        table->policies.push_back(Policy{unescape_field(fields[0]),
                                         unescape_field(fields[1]),
                                         std::move(parsed.take())});
        break;
      }
      case 'X': {
        if (!table || fields.size() != 1)
          return fail(error, strformat("snapshot line %zu: bad index", ln + 1));
        indexes.emplace_back(table->name, unescape_field(fields[0]));
        break;
      }
      case 'R': {
        if (rows)
          return fail(error, strformat("snapshot line %zu: row in a catalog",
                                       ln + 1));
        if (!table)
          return fail(error, strformat("snapshot line %zu: row before table",
                                       ln + 1));
        if (fields.size() != table->columns.size())
          return fail(error, strformat("snapshot line %zu: row arity", ln + 1));
        Row row;
        row.reserve(fields.size());
        for (const auto& f : fields) {
          Datum d;
          if (!decode_datum(f, &d))
            return fail(error, strformat("snapshot line %zu: bad datum",
                                         ln + 1));
          row.push_back(std::move(d));
        }
        table->rows.push_back(std::move(row));
        break;
      }
      case 'F': {
        if (fields.size() < 5)
          return fail(error, strformat("snapshot line %zu: bad function",
                                       ln + 1));
        if (!db.info().supports_udf) break;  // roachdb target: skip, no error
        FunctionDef fn;
        fn.name = unescape_field(fields[0]);
        auto nargs = parse_i64(fields[1]);
        auto n_notice = parse_i64(fields[4]);
        if (!nargs || !n_notice ||
            fields.size() != 7 + static_cast<size_t>(*n_notice))
          return fail(error, strformat("snapshot line %zu: bad function",
                                       ln + 1));
        fn.nargs = static_cast<size_t>(*nargs);
        if (fields[2] == "1") fn.notice_format = unescape_field(fields[3]);
        for (int64_t i = 0; i < *n_notice; ++i) {
          auto parsed = parse_bound(
              unescape_field(fields[5 + static_cast<size_t>(i)]), {});
          if (!parsed.ok())
            return fail(error, "snapshot: notice expr: " + parsed.error());
          fn.notice_args.push_back(parsed.take());
        }
        size_t ret_flag = 5 + static_cast<size_t>(*n_notice);
        if (fields[ret_flag] == "1") {
          auto parsed = parse_bound(unescape_field(fields[ret_flag + 1]), {});
          if (!parsed.ok())
            return fail(error, "snapshot: return expr: " + parsed.error());
          fn.return_expr = parsed.take();
        }
        db.functions_[fn.name] = std::move(fn);
        break;
      }
      case 'O': {
        if (fields.size() != 3)
          return fail(error, strformat("snapshot line %zu: bad operator",
                                       ln + 1));
        if (!db.info().supports_udf) break;
        OperatorDef op;
        op.symbol = unescape_field(fields[0]);
        op.procedure = unescape_field(fields[1]);
        op.restrict_estimator = unescape_field(fields[2]);
        db.operators_[op.symbol] = std::move(op);
        break;
      }
      default:
        return fail(error,
                    strformat("snapshot line %zu: unknown record '%c'", ln + 1,
                              rec));
    }
  }
  if (rows) {
    // Each row passes the arity check an R record gets; every table takes
    // exactly one entry.
    for (auto& [name, table_rows] : *rows) {
      TableData* t = db.find_table(name);
      if (!t) return fail(error, "snapshot: rows for unknown table " + name);
      for (const auto& row : table_rows)
        if (row.size() != t->columns.size())
          return fail(error, "snapshot: row arity in " + name);
      t->rows = std::move(table_rows);
    }
    if (rows->size() != db.tables_.size())
      return fail(error, "snapshot: a table has no rows entry");
  }
  for (const auto& [tname, column] : indexes) {
    TableData* t = db.find_table(tname);
    if (t) t->build_index(column);
  }
  return true;
}

}  // namespace rddr::sqldb
