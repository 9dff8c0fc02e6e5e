#include "netsim/block_device.h"

namespace rddr::sim {

BlockDevice::BlockDevice(Options opts)
    : opts_(opts), rng_(Rng(opts.rng_seed).fork(0xB10CDEULL)) {}

Time BlockDevice::write(uint64_t block, Bytes data) {
  counters_.writes++;
  counters_.bytes_written += data.size();
  Time cost = pages_cost(data.size(), kWriteLatency);
  staged_[block] = std::move(data);
  return cost;
}

BlockDevice::ReadResult BlockDevice::read(uint64_t block) const {
  counters_.reads++;
  ReadResult r;
  const Bytes* src = nullptr;
  if (auto it = staged_.find(block); it != staged_.end()) src = &it->second;
  else if (auto dt = durable_.find(block); dt != durable_.end())
    src = &dt->second;
  r.exists = src != nullptr;
  if (!r.exists) {
    r.latency = kReadLatency;
    return r;
  }
  r.latency = pages_cost(src->size(), kReadLatency);
  if (opts_.faults.read_error_prob > 0 &&
      rng_.uniform01() < opts_.faults.read_error_prob) {
    counters_.read_errors++;
    return r;  // ok stays false: transient error, content not delivered
  }
  r.ok = true;
  r.data = *src;
  counters_.bytes_read += src->size();
  return r;
}

BlockDevice::ReadResult BlockDevice::read_retrying(uint64_t block,
                                                  Time* io) const {
  ReadResult r;
  for (int i = 0; i < kReadAttempts; ++i) {
    r = read(block);
    if (io) *io += r.latency;
    if (r.ok || !r.exists) break;
  }
  return r;
}

Time BlockDevice::sync() {
  counters_.syncs++;
  Time cost = kSyncLatency;
  for (auto& [block, data] : staged_) {
    cost += pages_cost(data.size(), kWriteLatency);
    durable_[block] = std::move(data);
  }
  staged_.clear();
  return cost;
}

void BlockDevice::trim(uint64_t block) {
  staged_.erase(block);
  durable_.erase(block);
}

void BlockDevice::crash() {
  counters_.crashes++;
  uint64_t forced_block = 0;
  bool have_forced = false;
  if (force_torn_ && !staged_.empty()) {
    forced_block = staged_.rbegin()->first;  // the in-flight tail
    have_forced = true;
  }
  force_torn_ = false;
  for (auto& [block, data] : staged_) {
    double roll = rng_.uniform01();
    bool torn = (have_forced && block == forced_block) ||
                roll < opts_.faults.torn_write_prob;
    bool lost = !torn && roll < opts_.faults.torn_write_prob +
                             opts_.faults.lost_write_prob;
    if (lost) {
      counters_.lost_writes++;
      continue;  // staged content vanishes; durable image keeps the old
    }
    if (torn && data.size() > 1) {
      counters_.torn_writes++;
      // A prefix of the new content lands over the old: the classic torn
      // page. Keep at least one byte and strictly less than the whole so
      // checksums genuinely fail.
      size_t keep = 1 + static_cast<size_t>(rng_.uniform(
                            0, static_cast<int64_t>(data.size()) - 2));
      Bytes mangled = data.substr(0, keep);
      auto it = durable_.find(block);
      if (it != durable_.end() && it->second.size() > mangled.size())
        mangled += it->second.substr(mangled.size());
      durable_[block] = std::move(mangled);
      continue;
    }
    durable_[block] = std::move(data);
  }
  staged_.clear();
}

}  // namespace rddr::sim
