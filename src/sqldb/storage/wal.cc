#include "sqldb/storage/wal.h"

#include "common/strutil.h"
#include "sqldb/codec.h"

namespace rddr::sqldb::storage {

LogManager::LogManager(std::shared_ptr<sim::BlockDevice> dev)
    : dev_(std::move(dev)) {}

std::string LogManager::encode_record(const WalRecord& rec) {
  return seal_line(strformat("RDDRWALR 1\t%llu\t%s\t%s",
                             static_cast<unsigned long long>(rec.lsn),
                             escape_field(rec.user).c_str(),
                             escape_field(rec.sql).c_str()));
}

std::optional<WalRecord> LogManager::decode_record(std::string_view bytes) {
  auto fields = open_line(bytes);
  if (!fields || fields->size() != 4 || (*fields)[0] != "RDDRWALR 1")
    return std::nullopt;
  auto lsn = parse_i64((*fields)[1]);
  if (!lsn || *lsn < 0) return std::nullopt;
  WalRecord rec;
  rec.lsn = static_cast<uint64_t>(*lsn);
  rec.user = unescape_field((*fields)[2]);
  rec.sql = unescape_field((*fields)[3]);
  return rec;
}

std::string LogManager::encode_header() const {
  return seal_line(strformat("RDDRWALH 1\t%llu\t%llu",
                             static_cast<unsigned long long>(start_block_),
                             static_cast<unsigned long long>(start_lsn_)));
}

sim::Time LogManager::write_header() { return dev_->write(0, encode_header()); }

sim::Time LogManager::append(WalRecord rec) {
  std::string encoded = encode_record(rec);
  staged_records_++;
  staged_bytes_ += encoded.size();
  sim::Time io = dev_->write(next_block_++, std::move(encoded));
  records_.push_back(std::move(rec));
  return io;
}

sim::Time LogManager::flush() {
  staged_records_ = 0;
  staged_bytes_ = 0;
  return dev_->sync();
}

LogManager::RecoverResult LogManager::recover() {
  RecoverResult out;
  records_.clear();
  staged_records_ = 0;
  staged_bytes_ = 0;

  // Header first (block 0). Transient read errors get bounded retries;
  // a missing or corrupt header means no usable log at all.
  auto head = dev_->read_retrying(0, &out.io);
  if (!head.exists) {
    out.ok = false;
    out.error = "wal: no header";
    return out;
  }
  if (!head.ok) {
    out.ok = false;
    out.error = "wal: header unreadable";
    return out;
  }
  auto fields = open_line(head.data);
  std::optional<int64_t> start_block, start_lsn;
  if (fields && fields->size() == 3 && (*fields)[0] == "RDDRWALH 1") {
    start_block = parse_i64((*fields)[1]);
    start_lsn = parse_i64((*fields)[2]);
  }
  if (!start_block || *start_block < 1 || !start_lsn || *start_lsn < 0) {
    out.ok = false;
    out.error = "wal: corrupt header";
    return out;
  }
  start_block_ = static_cast<uint64_t>(*start_block);
  start_lsn_ = static_cast<uint64_t>(*start_lsn);

  // Forward scan: stop at the first gap (flush never reached it) or
  // corrupt record (torn write) — the valid durable prefix is the log.
  uint64_t expect_lsn = start_lsn_ + 1;
  uint64_t block = start_block_;
  for (;;) {
    auto r = dev_->read_retrying(block, &out.io);
    if (!r.exists) break;  // end of log
    auto rec = r.ok ? decode_record(r.data) : std::nullopt;
    if (!rec || rec->lsn != expect_lsn) {
      out.torn = true;
      break;
    }
    records_.push_back(*rec);
    out.records.push_back(std::move(*rec));
    expect_lsn++;
    block++;
  }
  next_block_ = block;
  return out;
}

sim::Time LogManager::reset(uint64_t start_lsn) {
  // Drop every existing record block, then write a fresh durable header.
  for (uint64_t b = start_block_; b < next_block_; ++b) dev_->trim(b);
  records_.clear();
  staged_records_ = 0;
  staged_bytes_ = 0;
  start_block_ = 1;
  next_block_ = 1;
  start_lsn_ = start_lsn;
  sim::Time io = write_header();
  return io + dev_->sync();
}

sim::Time LogManager::truncate_through(uint64_t through_lsn,
                                       uint64_t keep_records) {
  std::vector<uint64_t> trim_blocks;
  while (!records_.empty() && records_.front().lsn <= through_lsn &&
         records_.size() > keep_records) {
    trim_blocks.push_back(start_block_);
    start_lsn_ = records_.front().lsn;
    start_block_++;
    records_.pop_front();
  }
  if (trim_blocks.empty()) return 0;
  // Durable header first, then trim: a crash between the two leaves
  // unreferenced blocks behind (harmless), never a header pointing at
  // trimmed ones (which would read as an empty log).
  sim::Time io = write_header();
  io += dev_->sync();
  staged_records_ = 0;
  staged_bytes_ = 0;
  for (uint64_t b : trim_blocks) dev_->trim(b);
  return io;
}

std::optional<std::vector<WalRecord>> LogManager::records_after(
    uint64_t after_lsn) const {
  if (after_lsn < start_lsn_) return std::nullopt;  // tail does not reach
  std::vector<WalRecord> out;
  for (const auto& rec : records_)
    if (rec.lsn > after_lsn) out.push_back(rec);
  return out;
}

}  // namespace rddr::sqldb::storage
