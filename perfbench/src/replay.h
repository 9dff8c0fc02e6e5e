// Off-line replays of what a shim round recorded, each through one layer's
// public entry points on fresh state: response units through a new
// DiffEngine, and the generated SQL through sqldb (parse_sql,
// Session::execute) and through a durable StorageEngine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct DiffReplay {
  uint64_t batches = 0;
  double ns_per_batch = 0;
  double raw_equal_frac = 0;
  double fast_path_frac = 0;
};

/// Replays every recorded session's response batches through a fresh
/// DiffEngine::compare in strict mode with the proxy's filter-pair context.
DiffReplay replay_diff(const TimedPgPlugin& plugin);

struct SqlReplay {
  uint64_t statements = 0;
  double parse_ns_per_query = 0;
  double select_ns_per_query = 0;
  double update_ns_per_query = 0;
  double rows_scanned_per_query = 0;
  double allocs_per_query = 0;
  double storage_ns_per_write = 0;
};

/// Replays up to `max_scripts` captured scripts, statement by statement,
/// on a freshly loaded replica; with durable storage in the spec, the
/// writes once more through begin_statement/execute/end_statement.
SqlReplay replay_sql(const Spec& spec, const Inputs& inputs,
                     const std::vector<std::string>& scripts,
                     size_t max_scripts);

}  // namespace perfbench
