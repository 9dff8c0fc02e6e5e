// Deterministic snapshot/restore of a sqldb Database, and the one owner
// of the catalog record format.
//
// The state-transfer half of instance replacement (DESIGN.md "Recovery &
// resync"): a healthy replica is dumped to a flat text form — catalog,
// rows, grants, RLS policies, UDFs, operators, and index definitions —
// and loaded into a freshly spawned engine so the replacement starts from
// the trusted replica's state instead of an empty (and therefore
// immediately divergent) one.
//
// Format: an "RDDRSNAP 1" header, an "# engine" comment, then per table
// (name order) its catalog records T C G P X and its R rows, then the F
// (UDF) and O (operator) records. The storage engine's roots and
// pages-mode deltas carry the same catalog records, written by
// catalog_records and loaded by install_database; nothing else writes or
// parses them.
//
// Determinism: tables, grants, functions and operators live in std::map,
// so emit order is name order; rows are emitted in storage order (part of
// the state: minipg serves unordered scans in insertion order); floats are
// serialized as hex-floats. Identical databases therefore produce
// byte-identical snapshots, and snapshot(restore(snapshot(db))) is a
// fixed point — which is what lets tests compare replicas by dump.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sqldb/engine.h"

namespace rddr::sqldb {

/// Serializes the full database state. Engine identity (product/version)
/// is recorded as a header comment but is NOT part of the restored state:
/// a snapshot taken from one version can warm a replacement running
/// another (that is the point of N-versioning).
std::string snapshot_database(const Database& db);

/// Replaces `db`'s contents with the snapshot's. The target keeps its own
/// EngineInfo; UDFs/operators in the snapshot are skipped (not an error)
/// when the target engine does not support them (roachdb). Returns false
/// and sets `*error` (if non-null) on a malformed snapshot, leaving the
/// database cleared — callers must treat a failed restore as an empty
/// instance, not a warmed one.
bool restore_database(Database& db, std::string_view snapshot,
                      std::string* error = nullptr);

/// The catalog records of `db`: the snapshot without its header, engine
/// comment and R records, one record per line.
std::string catalog_records(const Database& db);

/// Each table's rows in storage order, keyed by table name.
using TableRows = std::map<std::string, std::vector<Row>>;

/// Replaces `db`'s contents with `catalog` (as catalog_records writes it)
/// and `rows`, which must hold exactly one entry per catalog table. Rows
/// move in as given after the arity check an R record gets (their datums
/// were checked when they were decoded); indexes are built once every row
/// is in. Same contract as restore_database: on false the database is
/// left cleared.
bool install_database(Database& db, std::string_view catalog, TableRows rows,
                      std::string* error = nullptr);

}  // namespace rddr::sqldb
