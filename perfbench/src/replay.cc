#include "replay.h"

#include <algorithm>
#include <memory>

#include "netsim/block_device.h"
#include "rddr/diff_engine.h"
#include "sqldb/engine.h"
#include "sqldb/parser.h"
#include "sqldb/storage/storage_engine.h"

namespace perfbench {

using namespace rddr;

DiffReplay replay_diff(const TimedPgPlugin& plugin) {
  core::DiffEngine engine;
  core::KnownVariance variance;
  core::CompareContext ctx;
  ctx.filter_pair = true;
  ctx.variance = &variance;
  uint64_t ns = 0;
  std::vector<core::Unit> batch;
  for (const auto& session : plugin.sessions()) {
    size_t depth = SIZE_MAX;
    for (const auto& log : session->logs) depth = std::min(depth, log.size());
    for (size_t k = 0; k < depth; ++k) {
      batch.clear();
      for (const auto& log : session->logs) batch.push_back(log[k]);
      uint64_t t0 = now_ns();
      engine.compare(plugin, batch, ctx, core::VoteMode::kStrict);
      ns += now_ns() - t0;
    }
  }
  DiffReplay out;
  const auto& st = engine.stats();
  out.batches = st.batches;
  if (st.batches) {
    double n = static_cast<double>(st.batches);
    out.ns_per_batch = static_cast<double>(ns) / n;
    out.raw_equal_frac = static_cast<double>(st.raw_equal) / n;
    out.fast_path_frac = static_cast<double>(st.fast_path) / n;
  }
  return out;
}

namespace {

/// Splits a generated script at ';' (the generated SQL has no ';' inside
/// literals) into trimmed statements.
std::vector<std::string> split_statements(const std::string& script) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start < script.size()) {
    size_t end = script.find(';', start);
    if (end == std::string::npos) end = script.size();
    size_t b = script.find_first_not_of(' ', start);
    if (b != std::string::npos && b < end)
      out.push_back(script.substr(b, end - b + 1));
    start = end + 1;
  }
  return out;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

double per(uint64_t total, uint64_t n) {
  return n ? static_cast<double>(total) / static_cast<double>(n) : 0.0;
}

}  // namespace

SqlReplay replay_sql(const Spec& spec, const Inputs& inputs,
                     const std::vector<std::string>& scripts,
                     size_t max_scripts) {
  std::vector<std::string> statements;
  for (size_t i = 0; i < scripts.size() && i < max_scripts; ++i)
    for (auto& st : split_statements(scripts[i]))
      statements.push_back(std::move(st));

  SqlReplay out;
  out.statements = statements.size();
  uint64_t parse_ns = 0;
  for (const auto& sql : statements) {
    uint64_t t0 = now_ns();
    auto parsed = sqldb::parse_sql(sql);
    parse_ns += now_ns() - t0;
    (void)parsed;
  }
  out.parse_ns_per_query = per(parse_ns, statements.size());

  sqldb::Database db(sqldb::minipg_info("13.0"));
  load_data(spec, inputs.data_seed, db);
  sqldb::Session session(db, "postgres");
  uint64_t select_ns = 0, selects = 0, update_ns = 0, updates = 0;
  uint64_t rows = 0, allocs = 0;
  alloc::set_counting(true);
  for (const auto& sql : statements) {
    uint64_t a0 = alloc::thread_count();
    uint64_t t0 = now_ns();
    sqldb::ExecResult res = session.execute(sql);
    uint64_t dt = now_ns() - t0;
    allocs += alloc::thread_count() - a0;
    rows += static_cast<uint64_t>(res.rows_scanned);
    if (starts_with(sql, "UPDATE")) {
      update_ns += dt;
      ++updates;
    } else {
      select_ns += dt;
      ++selects;
    }
  }
  alloc::set_counting(false);
  out.select_ns_per_query = per(select_ns, selects);
  out.update_ns_per_query = per(update_ns, updates);
  out.rows_scanned_per_query = per(rows, statements.size());
  out.allocs_per_query = per(allocs, statements.size());

  if (spec.frame_budget > 0 && updates > 0) {
    // The write path as the pgwire server drives it, on a fresh durable
    // replica over its own devices (storage_recovery's Replica pattern).
    sim::Simulator simulator;
    sim::BlockDevice::Options dev;
    dev.rng_seed = inputs.seed;
    auto data = std::make_shared<sim::BlockDevice>(dev);
    dev.rng_seed = inputs.seed + 1;
    auto wal = std::make_shared<sim::BlockDevice>(dev);
    sqldb::Database ddb(sqldb::minipg_info("13.0"));
    load_data(spec, inputs.data_seed, ddb);
    sqldb::storage::StorageOptions sto;
    sto.frame_budget = spec.frame_budget;
    sqldb::storage::StorageEngine engine(simulator, data, wal, sto);
    engine.bootstrap(ddb, inputs.data_seed);
    simulator.run_until_idle();
    sqldb::Session dsession(ddb, "postgres");
    uint64_t write_ns = 0;
    for (const auto& sql : statements) {
      if (!starts_with(sql, "UPDATE")) continue;
      uint64_t t0 = now_ns();
      engine.begin_statement();
      dsession.execute(sql);
      engine.end_statement(dsession.user(), sql);
      write_ns += now_ns() - t0;
      simulator.run_until_idle();  // checkpoint steps, outside the timing
    }
    out.storage_ns_per_write = per(write_ns, updates);
  }
  return out;
}

}  // namespace perfbench
