#include "sqldb/storage/storage_engine.h"

#include <algorithm>

#include "common/strutil.h"
#include "sqldb/codec.h"
#include "sqldb/snapshot.h"
#include "sqldb/storage/page.h"

namespace rddr::sqldb::storage {

namespace {

/// Virtual-time gap between checkpoint steps (with
/// StorageOptions::checkpoint_pages_per_step: how long the
/// crash-during-checkpoint window is).
constexpr sim::Time kCheckpointStepInterval = 2 * sim::kMillisecond;

bool set_error(std::string* error, const std::string& message) {
  if (error) *error = message;
  return false;
}

// Catalog records are one per line (escape_field encodes newlines).
size_t line_count(std::string_view text) {
  return static_cast<size_t>(std::count(text.begin(), text.end(), '\n'));
}

}  // namespace

StorageEngine::StorageEngine(sim::Simulator& sim,
                             std::shared_ptr<sim::BlockDevice> data,
                             std::shared_ptr<sim::BlockDevice> wal,
                             StorageOptions opts)
    : sim_(sim),
      data_(std::move(data)),
      wal_dev_(std::move(wal)),
      opts_(opts),
      wal_(wal_dev_),
      pool_(opts.frame_budget) {}

StorageEngine::~StorageEngine() { detach(); }

void StorageEngine::detach() {
  if (db_) db_->set_mutation_listener(nullptr);
  db_ = nullptr;
  if (ckpt_.step_event) sim_.cancel(ckpt_.step_event);
  ckpt_ = Checkpoint{};
  if (flush_event_) sim_.cancel(flush_event_);
  flush_event_ = 0;
}

// ---- Root manifest -----------------------------------------------------

Bytes StorageEngine::encode_root(const RootImage& root) const {
  std::string body = root.catalog;
  for (const auto& m : root.tables) {
    body += strformat("M\t%s\t%llu\t%zu\t", escape_field(m.name).c_str(),
                      static_cast<unsigned long long>(m.nrows),
                      m.blocks.size());
    for (size_t i = 0; i < m.blocks.size(); ++i) {
      if (i) body += ' ';
      body += std::to_string(m.blocks[i]);
    }
    body += '\n';
  }
  std::string head = strformat(
      "RDDRROOT 1\t%llu\t%llu\t%s\t%llu\t%llu\t%zu\t%zu",
      static_cast<unsigned long long>(root.seq),
      static_cast<unsigned long long>(root.lsn), hex64(root.lineage).c_str(),
      static_cast<unsigned long long>(root.next_free_block),
      static_cast<unsigned long long>(root.rows_per_page),
      line_count(root.catalog), root.tables.size());
  return seal_block(head, body);
}

std::optional<StorageEngine::RootImage> StorageEngine::decode_root(
    ByteView bytes) const {
  auto opened = open_block(bytes);
  if (!opened) return std::nullopt;
  const auto& fields = opened->head;
  if (fields.size() != 8 || fields[0] != "RDDRROOT 1") return std::nullopt;
  auto seq = parse_i64(fields[1]);
  auto lsn = parse_i64(fields[2]);
  auto lineage = parse_hex64(fields[3]);
  auto next_free = parse_i64(fields[4]);
  auto rpp = parse_i64(fields[5]);
  auto ncat = parse_i64(fields[6]);
  auto ntables = parse_i64(fields[7]);
  if (!seq || !lsn || !lineage || !next_free || !rpp || !ncat || !ntables ||
      *seq < 0 || *lsn < 0 || *next_free < 2 || *rpp < 1 || *ncat < 0 ||
      *ntables < 0)
    return std::nullopt;
  RootImage root;
  root.seq = static_cast<uint64_t>(*seq);
  root.lsn = static_cast<uint64_t>(*lsn);
  root.lineage = *lineage;
  root.next_free_block = static_cast<uint64_t>(*next_free);
  root.rows_per_page = static_cast<uint64_t>(*rpp);
  auto lines = split_lines(opened->body);
  // split_lines may yield a trailing empty line for "a\n" inputs — trim.
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.size() !=
      static_cast<size_t>(*ncat) + static_cast<size_t>(*ntables))
    return std::nullopt;
  for (int64_t i = 0; i < *ncat; ++i) {
    root.catalog += lines[static_cast<size_t>(i)];
    root.catalog += '\n';
  }
  for (int64_t i = 0; i < *ntables; ++i) {
    const std::string& line = lines[static_cast<size_t>(*ncat + i)];
    auto mf = split(line, '\t');
    if (mf.size() != 5 || mf[0] != "M") return std::nullopt;
    RootImage::TableMap m;
    m.name = unescape_field(mf[1]);
    auto nrows = parse_i64(mf[2]);
    auto np = parse_i64(mf[3]);
    if (!nrows || !np || *nrows < 0 || *np < 0) return std::nullopt;
    m.nrows = static_cast<uint64_t>(*nrows);
    if (*np > 0) {
      auto bs = split(mf[4], ' ');
      if (bs.size() != static_cast<size_t>(*np)) return std::nullopt;
      for (const auto& b : bs) {
        auto blk = parse_i64(b);
        if (!blk || *blk < 2) return std::nullopt;
        m.blocks.push_back(static_cast<uint64_t>(*blk));
      }
    } else if (!mf[4].empty()) {
      return std::nullopt;
    }
    root.tables.push_back(std::move(m));
  }
  return root;
}

std::optional<StorageEngine::RootImage> StorageEngine::read_root(
    sim::Time* io) const {
  std::optional<RootImage> best;
  for (uint64_t slot = 0; slot < 2; ++slot) {
    auto r = data_->read_retrying(slot, io);
    if (!r.ok) continue;
    auto root = decode_root(r.data);
    if (!root) continue;
    if (!best || root->seq > best->seq) best = std::move(root);
  }
  return best;
}

bool StorageEngine::has_durable_state() const { return read_root(nullptr).has_value(); }

// ---- Table bookkeeping -------------------------------------------------

StorageEngine::TableState& StorageEngine::ensure_table(const TableData& t) {
  TableState& ts = tables_[t.name];
  uint64_t np = npages(t.rows.size());
  if (ts.page_lsns.size() < np) {
    ts.page_lsns.resize(np, 0);
    ts.blocks.resize(np, 0);
  }
  return ts;
}

void StorageEngine::mark_page(const TableData& t, uint64_t page) {
  TableState& ts = ensure_table(t);
  if (page >= ts.page_lsns.size()) {
    ts.page_lsns.resize(page + 1, 0);
    ts.blocks.resize(page + 1, 0);
  }
  ts.page_lsns[page] = effective_lsn();
  pool_.mark_dirty({t.name, page}, ts.avg_page_bytes);
  statement_mutated_ = true;
  // Dirty pressure: every frame pinned means the working set outgrew the
  // budget — checkpoint now to unpin.
  if (pool_.dirty_frames() > pool_.budget()) maybe_start_checkpoint(true);
}

void StorageEngine::adopt_tables(uint64_t page_lsn) {
  tables_.clear();
  if (!db_) return;
  for (const auto& [name, t] : db_->tables()) {
    TableState ts;
    uint64_t np = npages(t.rows.size());
    ts.page_lsns.assign(np, page_lsn);
    ts.blocks.assign(np, 0);
    if (!t.rows.empty()) {
      uint64_t per_row = static_cast<uint64_t>(
          t.approx_bytes() / static_cast<int64_t>(t.rows.size()));
      ts.avg_page_bytes = std::max<uint64_t>(256, per_row * opts_.rows_per_page);
    }
    tables_[name] = std::move(ts);
  }
}

void StorageEngine::reclaim_all_blocks() {
  for (auto& [name, ts] : tables_)
    for (uint64_t b : ts.blocks)
      if (b) stale_blocks_.push_back(b);
}

// ---- Lifecycle ---------------------------------------------------------

sim::Time StorageEngine::bootstrap(Database& db, uint64_t lineage_seed) {
  detach();
  db_ = &db;
  db.set_mutation_listener(this);
  lsn_ = 0;
  checkpointed_lsn_ = 0;
  root_seq_ = 0;
  next_free_block_ = 2;
  stale_blocks_.clear();
  pool_.clear();
  lineage_id_ =
      fnv1a64(snapshot_database(db)) ^ (lineage_seed * 0x9e3779b97f4a7c15ULL);
  if (lineage_id_ == 0) lineage_id_ = 1;
  adopt_tables(0);
  sim::Time io = wal_.reset(0);
  maybe_start_checkpoint(/*force=*/true);
  return io;
}

StorageEngine::RecoveryResult StorageEngine::recover(Database& db) {
  RecoveryResult out;
  counters_.recoveries++;
  detach();
  db_ = &db;

  auto fail = [&](const std::string& why) -> RecoveryResult& {
    out.ok = false;
    out.error = why;
    out.trace += "recovery failed: " + why + "\n";
    counters_.recovery_failures++;
    // The instance restarts empty (peer-resync territory): cleared
    // database, zero lineage so no delta can be built against it.
    install_database(db, "", {});
    db.set_mutation_listener(this);
    tables_.clear();
    pool_.clear();
    lsn_ = 0;
    checkpointed_lsn_ = 0;
    lineage_id_ = 0;
    out.io_time += wal_.reset(0);
    return out;
  };

  auto root = read_root(&out.io_time);
  if (!root) return fail("no valid root manifest");
  root_seq_ = root->seq;
  lineage_id_ = root->lineage;
  next_free_block_ = root->next_free_block;
  opts_.rows_per_page = root->rows_per_page;
  lsn_ = root->lsn;
  checkpointed_lsn_ = root->lsn;
  out.trace += strformat("root seq=%llu lsn=%llu tables=%zu\n",
                         static_cast<unsigned long long>(root->seq),
                         static_cast<unsigned long long>(root->lsn),
                         root->tables.size());

  // Heap pages first, then the catalog and rows install in one step
  // (tables, grants, policies, UDFs/operators, then indexes over the
  // rows), then the WAL tail.
  tables_.clear();
  pool_.clear();
  stale_blocks_.clear();
  TableRows rows;
  for (const auto& m : root->tables) {
    std::vector<Row>& t_rows = rows[m.name];
    TableState ts;
    ts.blocks = m.blocks;
    ts.page_lsns.assign(m.blocks.size(), 0);
    for (size_t p = 0; p < m.blocks.size(); ++p) {
      auto r = data_->read_retrying(m.blocks[p], &out.io_time);
      if (!r.ok)
        return fail(strformat("page %s/%zu unreadable", m.name.c_str(), p));
      auto img = decode_page(r.data);
      if (!img || img->table != m.name || img->page_no != p)
        return fail(strformat("page %s/%zu corrupt", m.name.c_str(), p));
      for (auto& row : img->rows) t_rows.push_back(std::move(row));
      ts.page_lsns[p] = img->page_lsn;
      ts.avg_page_bytes = std::max<uint64_t>(256, r.data.size());
      counters_.pages_read++;
      out.pages_read++;
      pool_.touch({m.name, p}, ts.avg_page_bytes);
      out.trace += strformat("page %s/%zu lsn=%llu rows=%zu\n",
                             m.name.c_str(), p,
                             static_cast<unsigned long long>(img->page_lsn),
                             img->rows.size());
    }
    if (t_rows.size() != m.nrows)
      return fail("row count mismatch for " + m.name);
    tables_[m.name] = std::move(ts);
  }
  std::string err;
  if (!install_database(db, root->catalog, std::move(rows), &err))
    return fail("catalog restore: " + err);

  // Redo: replay the committed statement tail through the engine. The
  // listener is attached first so replayed mutations re-mark page LSNs.
  auto wrec = wal_.recover();
  out.io_time += wrec.io;
  if (!wrec.ok) return fail(wrec.error);
  out.wal_torn = wrec.torn;
  db.set_mutation_listener(this);
  for (const auto& rec : wrec.records) {
    if (rec.lsn <= lsn_) continue;
    if (rec.lsn != lsn_ + 1) break;  // gap: stop at the valid prefix
    redo(rec);
    out.wal_records_replayed++;
    out.wal_bytes_replayed += rec.sql.size();
    out.trace += strformat("redo lsn=%llu user=%s bytes=%zu\n",
                           static_cast<unsigned long long>(rec.lsn),
                           rec.user.c_str(), rec.sql.size());
  }
  statement_mutated_ = false;
  pending_io_ = 0;
  wal_records_since_ckpt_ = lsn_ - checkpointed_lsn_;
  out.trace += strformat("recovered lsn=%llu pages=%llu redo=%llu torn=%d\n",
                         static_cast<unsigned long long>(lsn_),
                         static_cast<unsigned long long>(out.pages_read),
                         static_cast<unsigned long long>(
                             out.wal_records_replayed),
                         out.wal_torn ? 1 : 0);
  out.ok = true;
  return out;
}

void StorageEngine::redo(const WalRecord& rec) {
  // Replayed mutations mark pages with the record's own LSN.
  replaying_ = true;
  replay_lsn_ = rec.lsn;
  Session(*db_, rec.user).execute(rec.sql);
  replaying_ = false;
  lsn_ = rec.lsn;
  counters_.wal_records_replayed++;
  counters_.wal_bytes_replayed += rec.sql.size();
}

sim::Time StorageEngine::rebase(uint64_t source_lsn, uint64_t source_lineage) {
  if (!db_) return 0;
  reclaim_all_blocks();
  pool_.clear();
  lsn_ = source_lsn;
  lineage_id_ = source_lineage;
  adopt_tables(source_lsn);
  sim::Time io = wal_.reset(source_lsn);
  maybe_start_checkpoint(/*force=*/true);
  return io;
}

// ---- Commit path -------------------------------------------------------

void StorageEngine::begin_statement() {
  pending_io_ = 0;
  statement_mutated_ = false;
}

sim::Time StorageEngine::end_statement(const std::string& user,
                                       std::string_view sql) {
  sim::Time io = pending_io_;
  pending_io_ = 0;
  if (!statement_mutated_ || !db_) return io;
  statement_mutated_ = false;
  lsn_++;
  counters_.wal_records_appended++;
  counters_.wal_bytes_appended += sql.size();
  wal_records_since_ckpt_++;
  io += wal_.append(WalRecord{lsn_, user, std::string(sql)});
  if (opts_.wal_flush_interval == 0) {
    // Commit-synchronous durability: the sync cost lands on this query.
    io += wal_.flush();
    counters_.wal_flushes++;
  } else {
    schedule_flush();
  }
  maybe_start_checkpoint(/*force=*/false);
  return io;
}

void StorageEngine::schedule_flush() {
  if (flush_event_ || opts_.wal_flush_interval <= 0) return;
  flush_event_ = sim_.schedule(opts_.wal_flush_interval, [this] {
    flush_event_ = 0;
    if (!wal_.has_staged()) return;
    wal_.flush();  // group commit: background IO, charged to no query
    counters_.wal_flushes++;
  });
}

// ---- Checkpoint --------------------------------------------------------

void StorageEngine::maybe_start_checkpoint(bool force) {
  if (ckpt_.active || !db_) return;
  if (!force && wal_records_since_ckpt_ < opts_.checkpoint_every_records)
    return;
  counters_.checkpoints_started++;
  // The WAL must be durable through the checkpoint LSN before any page
  // that includes those effects can land.
  if (wal_.has_staged()) {
    wal_.flush();
    counters_.wal_flushes++;
  }
  ckpt_.active = true;
  ckpt_.seq = root_seq_ + 1;
  ckpt_.target_lsn = lsn_;
  ckpt_.writes.clear();
  ckpt_.new_blocks.clear();
  ckpt_.next_write = 0;
  ckpt_.free_after = std::move(stale_blocks_);
  stale_blocks_.clear();

  RootImage root;
  root.seq = ckpt_.seq;
  root.lsn = lsn_;
  root.lineage = lineage_id_;
  root.rows_per_page = opts_.rows_per_page;
  root.catalog = catalog_records(*db_);
  // Capture page images NOW (consistent at target_lsn); the device
  // writes are spread over the steps that follow.
  for (const auto& [name, t] : db_->tables()) {
    TableState& ts = ensure_table(t);
    RootImage::TableMap m;
    m.name = name;
    m.nrows = t.rows.size();
    m.blocks = ts.blocks;
    uint64_t np = npages(t.rows.size());
    for (uint64_t p = 0; p < np; ++p) {
      if (ts.blocks[p] != 0 && ts.page_lsns[p] <= checkpointed_lsn_) continue;
      Bytes img = encode_page(t, p, ts.page_lsns[p],
                              static_cast<size_t>(p * opts_.rows_per_page),
                              static_cast<size_t>(opts_.rows_per_page));
      ts.avg_page_bytes = std::max<uint64_t>(256, img.size());
      uint64_t blk = next_free_block_++;
      if (ts.blocks[p]) ckpt_.free_after.push_back(ts.blocks[p]);
      m.blocks[p] = blk;
      ckpt_.new_blocks.emplace_back(BufferPool::Key{name, p}, blk);
      ckpt_.writes.emplace_back(BufferPool::Key{name, p}, std::move(img));
    }
    root.tables.push_back(std::move(m));
  }
  root.next_free_block = next_free_block_;
  ckpt_.root_image = encode_root(root);
  ckpt_.step_event =
      sim_.schedule(kCheckpointStepInterval, [this] { checkpoint_step(); });
}

void StorageEngine::checkpoint_step() {
  ckpt_.step_event = 0;
  if (!ckpt_.active) return;
  size_t budget = opts_.checkpoint_pages_per_step ? opts_.checkpoint_pages_per_step : 1;
  size_t done = 0;
  while (ckpt_.next_write < ckpt_.writes.size() && done < budget) {
    auto& [key, img] = ckpt_.writes[ckpt_.next_write];
    data_->write(ckpt_.new_blocks[ckpt_.next_write].second, std::move(img));
    counters_.pages_written++;
    ckpt_.next_write++;
    done++;
  }
  if (ckpt_.next_write < ckpt_.writes.size()) {
    ckpt_.step_event =
        sim_.schedule(kCheckpointStepInterval, [this] { checkpoint_step(); });
    return;
  }
  finish_checkpoint();
}

void StorageEngine::finish_checkpoint() {
  // Ordering is the whole point: pages durable, then the new root, then
  // the old generation is reclaimed. A crash anywhere in between leaves
  // either the old root (valid, longer redo) or the new one (valid).
  data_->sync();
  data_->write(ckpt_.seq % 2, std::move(ckpt_.root_image));
  data_->sync();
  root_seq_ = ckpt_.seq;
  checkpointed_lsn_ = ckpt_.target_lsn;
  for (const auto& [key, blk] : ckpt_.new_blocks) {
    auto it = tables_.find(key.first);
    if (it != tables_.end() && key.second < it->second.blocks.size()) {
      it->second.blocks[key.second] = blk;
      if (it->second.page_lsns[key.second] <= ckpt_.target_lsn)
        pool_.mark_clean(key);
    } else {
      // Dropped or shrunk during the window: the new root references the
      // block (consistent at target_lsn) but the live table moved on —
      // reclaim after the NEXT checkpoint supersedes this root.
      stale_blocks_.push_back(blk);
    }
  }
  for (uint64_t b : ckpt_.free_after) data_->trim(b);
  wal_.truncate_through(ckpt_.target_lsn, opts_.wal_keep_records);
  wal_records_since_ckpt_ = lsn_ - checkpointed_lsn_;
  counters_.checkpoints_completed++;
  ckpt_.active = false;
  ckpt_.writes.clear();
  ckpt_.new_blocks.clear();
  ckpt_.free_after.clear();
  ckpt_.root_image.clear();
}

// ---- Incremental resync ------------------------------------------------

std::optional<std::string> StorageEngine::build_delta(
    uint64_t target_lsn, uint64_t target_lineage, DeltaStats* stats) const {
  if (!db_ || lineage_id_ == 0 || target_lineage == 0 ||
      target_lineage != lineage_id_ || target_lsn > lsn_)
    return std::nullopt;
  DeltaStats st;
  std::string body;
  if (auto recs = wal_.records_after(target_lsn)) {
    st.mode = "wal";
    for (const auto& rec : *recs) {
      body += strformat("W\t%llu\t%s\t%s\n",
                        static_cast<unsigned long long>(rec.lsn),
                        escape_field(rec.user).c_str(),
                        escape_field(rec.sql).c_str());
      st.wal_records++;
      st.wal_bytes += rec.sql.size();
    }
  } else {
    st.mode = "pages";
    std::string cat = catalog_records(*db_);
    body += strformat("CAT\t%zu\n", line_count(cat));
    body += cat;
    for (const auto& [name, t] : db_->tables()) {
      body += "S\t" + escape_field(name) + "\t" +
              std::to_string(t.rows.size()) + "\n";
      auto it = tables_.find(name);
      uint64_t np = npages(t.rows.size());
      for (uint64_t p = 0; p < np; ++p) {
        uint64_t plsn =
            (it != tables_.end() && p < it->second.page_lsns.size())
                ? it->second.page_lsns[p]
                : lsn_;
        if (plsn <= target_lsn) continue;
        size_t first = static_cast<size_t>(p * opts_.rows_per_page);
        size_t n = std::min<size_t>(opts_.rows_per_page,
                                    t.rows.size() - first);
        body += strformat("P\t%s\t%llu\t%llu\t%zu\n",
                          escape_field(name).c_str(),
                          static_cast<unsigned long long>(p),
                          static_cast<unsigned long long>(plsn), n);
        for (size_t i = 0; i < n; ++i) {
          body += "R\t";
          append_row(body, t.rows[first + i]);
          body += '\n';
        }
        st.pages_shipped++;
      }
    }
  }
  std::string head = strformat(
      "RDDRDELTA 1\t%s\t%llu\t%llu\t%s", st.mode,
      static_cast<unsigned long long>(target_lsn),
      static_cast<unsigned long long>(lsn_), hex64(lineage_id_).c_str());
  std::string out = seal_block(head, body);
  st.bytes = out.size();
  counters_.deltas_built++;
  if (stats) *stats = st;
  return out;
}

bool StorageEngine::apply_delta(std::string_view delta, DeltaStats* stats,
                                std::string* error) {
  if (!db_) return set_error(error, "delta: no attached database");
  auto opened = open_block(delta);
  if (!opened) return set_error(error, "delta: bad frame or checksum");
  const auto& fields = opened->head;
  if (fields.size() != 5 || fields[0] != "RDDRDELTA 1")
    return set_error(error, "delta: bad header");
  const std::string& mode = fields[1];
  auto from = parse_i64(fields[2]);
  auto to = parse_i64(fields[3]);
  auto lineage = parse_hex64(fields[4]);
  if (!from || !to || !lineage || *from < 0 || *to < *from)
    return set_error(error, "delta: bad header fields");
  if (*lineage == 0 || *lineage != lineage_id_)
    return set_error(error, "delta: lineage mismatch");
  if (static_cast<uint64_t>(*from) != lsn_)
    return set_error(error, strformat("delta: built for lsn %lld, at %llu",
                                      static_cast<long long>(*from),
                                      static_cast<unsigned long long>(lsn_)));
  DeltaStats st;
  st.bytes = delta.size();

  if (mode == "wal") {
    st.mode = "wal";
    for (const auto& line : split_lines(opened->body)) {
      if (line.empty()) continue;
      auto wf = split(line, '\t');
      if (wf.size() != 4 || wf[0] != "W")
        return set_error(error, "delta: bad wal line");
      auto lsn = parse_i64(wf[1]);
      if (!lsn || static_cast<uint64_t>(*lsn) != lsn_ + 1)
        return set_error(error, "delta: wal lsn discontinuity");
      WalRecord rec{static_cast<uint64_t>(*lsn), unescape_field(wf[2]),
                    unescape_field(wf[3])};
      redo(rec);
      st.wal_records++;
      st.wal_bytes += rec.sql.size();
      wal_records_since_ckpt_++;
      wal_.append(std::move(rec));
    }
    statement_mutated_ = false;
    pending_io_ = 0;
    if (lsn_ != static_cast<uint64_t>(*to))
      return set_error(error, "delta: wal tail incomplete");
    wal_.flush();
    counters_.wal_flushes++;
    maybe_start_checkpoint(/*force=*/false);
  } else if (mode == "pages") {
    st.mode = "pages";
    // Parse the shipped catalog, table sizes and dirty pages.
    struct DeltaPage {
      uint64_t lsn = 0;
      std::vector<Row> rows;
    };
    std::string catalog;
    std::vector<std::pair<std::string, uint64_t>> sizes;  // table -> nrows
    std::map<std::pair<std::string, uint64_t>, DeltaPage> pages;
    auto lines = split_lines(opened->body);
    while (!lines.empty() && lines.back().empty()) lines.pop_back();
    size_t i = 0;
    if (lines.empty() || !starts_with(lines[0], "CAT\t"))
      return set_error(error, "delta: missing catalog");
    auto ncat = parse_i64(std::string_view(lines[0]).substr(4));
    if (!ncat || *ncat < 0 ||
        lines.size() < 1 + static_cast<size_t>(*ncat))
      return set_error(error, "delta: bad catalog count");
    for (i = 1; i <= static_cast<size_t>(*ncat); ++i) {
      catalog += lines[i];
      catalog += '\n';
    }
    DeltaPage* cur_page = nullptr;
    size_t cur_expect = 0;
    for (; i < lines.size(); ++i) {
      const std::string& line = lines[i];
      auto lf = split(line, '\t');
      if (lf[0] == "S") {
        if (lf.size() != 3) return set_error(error, "delta: bad size line");
        auto nrows = parse_i64(lf[2]);
        if (!nrows || *nrows < 0)
          return set_error(error, "delta: bad size line");
        sizes.emplace_back(unescape_field(lf[1]),
                           static_cast<uint64_t>(*nrows));
      } else if (lf[0] == "P") {
        if (cur_page && cur_page->rows.size() != cur_expect)
          return set_error(error, "delta: short page");
        if (lf.size() != 5) return set_error(error, "delta: bad page line");
        auto pno = parse_i64(lf[2]);
        auto plsn = parse_i64(lf[3]);
        auto n = parse_i64(lf[4]);
        if (!pno || !plsn || !n || *pno < 0 || *plsn < 0 || *n < 0)
          return set_error(error, "delta: bad page line");
        DeltaPage& dp = pages[{unescape_field(lf[1]),
                               static_cast<uint64_t>(*pno)}];
        dp.lsn = static_cast<uint64_t>(*plsn);
        cur_page = &dp;
        cur_expect = static_cast<size_t>(*n);
      } else if (lf[0] == "R") {
        if (!cur_page) return set_error(error, "delta: row before page");
        // The row payload is everything after the "R\t" prefix (it
        // contains tabs between datums).
        Row row;
        if (!decode_row(std::string_view(line).substr(2), &row))
          return set_error(error, "delta: bad row");
        cur_page->rows.push_back(std::move(row));
      } else {
        return set_error(error, "delta: unknown line");
      }
    }
    if (cur_page && cur_page->rows.size() != cur_expect)
      return set_error(error, "delta: short page");

    // Each table's rows: shipped pages where dirty, our own
    // (identical-by-LSN) pages where clean.
    TableRows rows;
    for (const auto& [name, nrows] : sizes) {
      const TableData* existing = db_->find_table(name);
      std::vector<Row>& out = rows[name];
      out.reserve(nrows);
      for (uint64_t p = 0; p < npages(nrows); ++p) {
        size_t first = static_cast<size_t>(p * opts_.rows_per_page);
        size_t n = std::min<size_t>(opts_.rows_per_page, nrows - first);
        auto it = pages.find({name, p});
        if (it != pages.end()) {
          if (it->second.rows.size() != n)
            return set_error(error, "delta: short page");
          for (auto& row : it->second.rows) out.push_back(std::move(row));
        } else {
          if (!existing || existing->rows.size() < first + n)
            return set_error(error, "delta: missing page for " + name);
          out.insert(out.end(), existing->rows.begin() + first,
                     existing->rows.begin() + first + n);
        }
      }
    }

    // Preserve the old page bookkeeping for clean-page carry-over.
    std::map<std::string, TableState> old_tables = std::move(tables_);
    tables_.clear();
    std::string err;
    if (!install_database(*db_, catalog, std::move(rows), &err)) {
      // The database is cleared (install's contract); storage state is
      // reset to "empty, no lineage" so callers fall back to a full
      // snapshot.
      pool_.clear();
      lsn_ = 0;
      lineage_id_ = 0;
      wal_.reset(0);
      return set_error(error, "delta: install: " + err);
    }
    pool_.clear();
    for (const auto& [name, nrows] : sizes) {
      TableState ts;
      uint64_t np = npages(nrows);
      ts.page_lsns.assign(np, 0);
      ts.blocks.assign(np, 0);
      auto old = old_tables.find(name);
      if (old != old_tables.end())
        ts.avg_page_bytes = old->second.avg_page_bytes;
      for (uint64_t p = 0; p < np; ++p) {
        auto it = pages.find({name, p});
        if (it != pages.end()) {
          ts.page_lsns[p] = it->second.lsn;
          pool_.mark_dirty({name, p}, ts.avg_page_bytes);
          st.pages_shipped++;
        } else if (old != old_tables.end() &&
                   p < old->second.page_lsns.size()) {
          ts.page_lsns[p] = old->second.page_lsns[p];
          ts.blocks[p] = old->second.blocks[p];
          old->second.blocks[p] = 0;  // carried over, don't reclaim
        }
      }
      tables_[name] = std::move(ts);
    }
    // Everything not carried over is superseded.
    for (auto& [name, ts] : old_tables)
      for (uint64_t b : ts.blocks)
        if (b) stale_blocks_.push_back(b);
    lsn_ = static_cast<uint64_t>(*to);
    wal_.reset(lsn_);
    maybe_start_checkpoint(/*force=*/true);
  } else {
    return set_error(error, "delta: unknown mode " + mode);
  }
  counters_.deltas_applied++;
  if (stats) *stats = st;
  return true;
}

// ---- Modeled resources -------------------------------------------------

int64_t StorageEngine::resident_bytes() const {
  return static_cast<int64_t>(pool_.resident_bytes() + wal_.staged_bytes());
}

// ---- MutationListener --------------------------------------------------

void StorageEngine::on_rows_appended(const TableData& table,
                                     size_t first_new_row) {
  uint64_t first_page = first_new_row / opts_.rows_per_page;
  uint64_t last_page = table.rows.empty()
                           ? first_page
                           : (table.rows.size() - 1) / opts_.rows_per_page;
  for (uint64_t p = first_page; p <= last_page; ++p) mark_page(table, p);
}

void StorageEngine::on_row_updated(const TableData& table, size_t ordinal) {
  mark_page(table, ordinal / opts_.rows_per_page);
}

void StorageEngine::on_rows_compacted(const TableData& table,
                                      size_t first_changed,
                                      size_t old_row_count) {
  (void)old_row_count;
  TableState& ts = ensure_table(table);
  uint64_t new_np = npages(table.rows.size());
  // Pages past the new end are gone: reclaim their blocks, drop frames.
  for (uint64_t p = new_np; p < ts.blocks.size(); ++p) {
    if (ts.blocks[p]) stale_blocks_.push_back(ts.blocks[p]);
    pool_.drop({table.name, p});
  }
  if (ts.blocks.size() > new_np) {
    ts.blocks.resize(new_np);
    ts.page_lsns.resize(new_np);
  }
  statement_mutated_ = true;
  for (uint64_t p = first_changed / opts_.rows_per_page; p < new_np; ++p)
    mark_page(table, p);
  if (new_np == 0) statement_mutated_ = true;  // empty table still mutated
}

void StorageEngine::on_table_created(const TableData& table) {
  ensure_table(table);
  statement_mutated_ = true;
}

void StorageEngine::on_table_dropped(const std::string& name) {
  auto it = tables_.find(name);
  if (it != tables_.end()) {
    for (uint64_t b : it->second.blocks)
      if (b) stale_blocks_.push_back(b);
    tables_.erase(it);
  }
  pool_.drop_table(name);
  statement_mutated_ = true;
}

void StorageEngine::on_catalog_changed(const TableData& table) {
  (void)table;
  statement_mutated_ = true;
}

void StorageEngine::on_schema_changed() { statement_mutated_ = true; }

void StorageEngine::on_scan(const TableData& table, const IntIndex* index,
                            int64_t key) {
  TableState& ts = ensure_table(table);
  constexpr sim::Time miss_cost = sim::BlockDevice::kReadLatency;
  if (index) {
    uint64_t last = UINT64_MAX;
    index->for_each(key, [&](size_t ord) {
      uint64_t p = ord / opts_.rows_per_page;
      if (p == last) return true;  // a key's rows cluster by page
      last = p;
      if (!pool_.touch({table.name, p}, ts.avg_page_bytes))
        pending_io_ += miss_cost;
      return true;
    });
    return;
  }
  uint64_t np = npages(table.rows.size());
  for (uint64_t p = 0; p < np; ++p)
    if (!pool_.touch({table.name, p}, ts.avg_page_bytes))
      pending_io_ += miss_cost;
}

}  // namespace rddr::sqldb::storage
