// Recursive-descent SQL parser for the sqldb subset (see ast.h).
#pragma once

#include "common/result.h"
#include "sqldb/ast.h"

namespace rddr::sqldb {

/// Parses a script of semicolon-separated statements. On syntax error the
/// Result carries a message including the offending token.
Result<Script> parse_sql(std::string_view sql);

/// Parses a single scalar expression (catalog copies, snapshots, tests):
/// the returned Script's expression().
Result<Script> parse_expression(std::string_view text);

}  // namespace rddr::sqldb
