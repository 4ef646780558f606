// SolutionStore — the persistence facade the serve layer talks to:
//
//   Put(key, solution)  encode → append to the log → the key points at
//                       the new record (the old one is superseded in
//                       place, reclaimed at the next compaction)
//   Fetch(key)          verified log read + decode; null on absent or
//                       damaged records — a damaged key goes cold, it
//                       never throws
//   Compact()           rewrite the verified live records, oldest put
//                       first, to <path>.compact, atomic rename over the
//                       log, rebuild offsets
//
// The store keeps a key → record map, rebuilt by log replay at startup;
// a later put for a key supersedes the earlier one. Keys leave the map
// only when their record turns out damaged or the disk budget drops
// them: the log holds put records alone.
//
// Disk budget: when the log grows past disk_budget_bytes, the oldest puts
// are evicted until the LIVE set fits, then a compaction materializes the
// reclaim. Put never fails for budget reasons — the budget bounds the
// file between enforcement points, not mid-append.
//
// Decoded solutions are kept in memory by exactly one tier, the serve
// layer's SolutionCache; the store holds only bytes on disk.
//
// Thread safety: one mutex over the key map + compaction (the log has
// its own for raw appends/reads). Fetch holds it across the disk read —
// promotion convoys serialize on the store, never on the serve cache's
// lock (serve/solution_cache.h calls the store OUTSIDE its own critical
// sections).

#ifndef DPC_STORE_SOLUTION_STORE_H_
#define DPC_STORE_SOLUTION_STORE_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dpc.h"
#include "core/status.h"
#include "store/solution_format.h"
#include "store/solution_log.h"

namespace dpc::store {

struct SolutionStoreOptions {
  /// Log-size ceiling; 0 = unbounded. Enforced by oldest-first eviction
  /// plus compaction whenever an append pushes the file past it.
  uint64_t disk_budget_bytes = 0;
};

class SolutionStore {
 public:
  struct Stats {
    uint64_t puts = 0;
    uint64_t fetches = 0;
    uint64_t log_reads = 0;         ///< fetches that read a verified record
    uint64_t decode_failures = 0;   ///< damaged records dropped at fetch
                                    ///< or compaction
    uint64_t compactions = 0;
    uint64_t budget_evictions = 0;  ///< keys dropped by the disk budget
    uint64_t log_bytes = 0;         ///< current on-disk file size
    uint64_t live_solutions = 0;    ///< keys in the map
    uint64_t live_payload_bytes = 0;  ///< payload bytes of those keys
  };

  /// Opens (creating if absent) the store whose log lives at `path`,
  /// replaying the log to rebuild the key map. Torn tails are truncated;
  /// a file that is not a solution log is an IoError.
  static StatusOr<std::unique_ptr<SolutionStore>> Open(
      const std::string& path, const SolutionStoreOptions& options = {}) {
    std::vector<LogRecord> records;
    auto log = SolutionLog::Open(path, &records);
    if (!log.ok()) return log.status();
    std::unique_ptr<SolutionStore> s(
        new SolutionStore(path, options, std::move(log).value()));
    for (const LogRecord& rec : records) s->InsertLocked(rec);
    return s;
  }

  /// Durably records `solution` under `key` (write-through: the record is
  /// in the OS page cache when this returns Ok).
  Status Put(const std::string& key, const DpcSolution& solution) {
    std::string payload;
    EncodeSolution(solution, &payload);
    std::lock_guard<std::mutex> lock(mu_);
    auto offset = log_->Append(key, payload);
    if (!offset.ok()) return offset.status();
    InsertLocked(LogRecord{key, offset.value(), payload.size()});
    ++puts_;
    return EnforceDiskBudgetLocked();
  }

  /// Returns the stored solution or null (absent, or damaged — the
  /// damaged key is dropped so the caller simply goes cold for it).
  std::shared_ptr<const DpcSolution> Fetch(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    ++fetches_;
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    std::string stored_key;
    std::string payload;
    Status read = log_->Read(it->second.offset, &stored_key, &payload);
    if (read.ok()) ++log_reads_;
    StatusOr<DpcSolution> decoded =
        read.ok() ? DecodeSolution(payload) : StatusOr<DpcSolution>(read);
    if (!decoded.ok()) {
      ++decode_failures_;
      EraseLocked(it);
      return nullptr;
    }
    return std::make_shared<const DpcSolution>(std::move(decoded).value());
  }

  bool Contains(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.count(key) != 0;
  }

  /// Rewrites the log keeping only live records (the newest put of each
  /// key whose record still verifies; superseded, damaged and
  /// budget-evicted records are dropped), then atomically renames it
  /// into place.
  Status Compact() {
    std::lock_guard<std::mutex> lock(mu_);
    return CompactLocked();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats out;
    out.puts = puts_;
    out.fetches = fetches_;
    out.log_reads = log_reads_;
    out.decode_failures = decode_failures_;
    out.compactions = compactions_;
    out.budget_evictions = budget_evictions_;
    out.log_bytes = log_->size_bytes();
    out.live_solutions = entries_.size();
    out.live_payload_bytes = live_payload_bytes_;
    return out;
  }

  const std::string& path() const { return path_; }

 private:
  /// Where the newest put of a key sits in the log.
  struct Entry {
    uint64_t offset = 0;         ///< byte offset of the record in the log
    uint64_t payload_bytes = 0;  ///< encoded solution size
    uint64_t seq = 0;            ///< monotone put sequence (age for eviction)
  };
  using EntryMap = std::unordered_map<std::string, Entry>;

  SolutionStore(std::string path, const SolutionStoreOptions& options,
                std::unique_ptr<SolutionLog> log)
      : path_(std::move(path)),
        options_(options),
        log_(std::move(log)) {}

  /// Inserts or supersedes; live_payload_bytes_ tracks the delta.
  void InsertLocked(const LogRecord& rec) {
    Entry& entry = entries_[rec.key];
    live_payload_bytes_ -= entry.payload_bytes;
    live_payload_bytes_ += rec.payload_bytes;
    entry = Entry{rec.offset, rec.payload_bytes, next_seq_++};
  }

  void EraseLocked(EntryMap::iterator it) {
    live_payload_bytes_ -= it->second.payload_bytes;
    entries_.erase(it);
  }

  /// On-disk bytes the live set would occupy in a fresh log.
  uint64_t LiveFileBytesLocked() const {
    uint64_t bytes = SolutionLog::kHeaderBytes;
    for (const auto& [key, entry] : entries_) {
      bytes += SolutionLog::RecordBytes(key.size(), entry.payload_bytes);
    }
    return bytes;
  }

  Status EnforceDiskBudgetLocked() {
    if (options_.disk_budget_bytes == 0 ||
        log_->size_bytes() <= options_.disk_budget_bytes) {
      return Status::Ok();
    }
    // Evict oldest puts until the live set fits, then materialize the
    // reclaim. Keep at least the newest record: a budget smaller than one
    // solution still stores the latest (the bound is then best-effort).
    while (entries_.size() > 1 &&
           LiveFileBytesLocked() > options_.disk_budget_bytes) {
      EraseLocked(std::min_element(
          entries_.begin(), entries_.end(),
          [](const auto& a, const auto& b) { return a.second.seq < b.second.seq; }));
      ++budget_evictions_;
    }
    return CompactLocked();
  }

  Status CompactLocked() {
    const std::string tmp_path = path_ + ".compact";
    std::remove(tmp_path.c_str());
    // Oldest put first: the compacted log replays in age order, so the
    // fresh sequence numbers keep the disk budget's eviction order.
    std::vector<EntryMap::const_iterator> by_age;
    by_age.reserve(entries_.size());
    for (auto it = entries_.cbegin(); it != entries_.cend(); ++it) {
      by_age.push_back(it);
    }
    std::sort(by_age.begin(), by_age.end(), [](const auto& a, const auto& b) {
      return a->second.seq < b->second.seq;
    });
    {
      std::vector<LogRecord> none;
      auto tmp = SolutionLog::Open(tmp_path, &none);
      if (!tmp.ok()) return tmp.status();
      std::string key;
      std::string payload;
      for (const auto& it : by_age) {
        // A record that no longer verifies is left out: its key goes
        // cold instead of being re-framed under a fresh checksum.
        if (!log_->Read(it->second.offset, &key, &payload).ok()) {
          ++decode_failures_;
          continue;
        }
        auto appended = tmp.value()->Append(it->first, payload);
        if (!appended.ok()) return appended.status();
      }
      // tmp's FILE closes here, before the rename.
    }
    // The old log stays open until the compacted one replaces it, so a
    // failed rename or reopen leaves the store serving from it.
    if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
      return Status::IoError("solution log compaction rename failed: " +
                             path_);
    }
    std::vector<LogRecord> records;
    auto reopened = SolutionLog::Open(path_, &records);
    if (!reopened.ok()) return reopened.status();
    log_ = std::move(reopened).value();
    entries_.clear();
    live_payload_bytes_ = 0;
    for (const LogRecord& rec : records) InsertLocked(rec);
    ++compactions_;
    return Status::Ok();
  }

  const std::string path_;
  const SolutionStoreOptions options_;
  mutable std::mutex mu_;
  std::unique_ptr<SolutionLog> log_;
  EntryMap entries_;
  uint64_t live_payload_bytes_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t puts_ = 0;
  uint64_t fetches_ = 0;
  uint64_t log_reads_ = 0;
  uint64_t decode_failures_ = 0;
  uint64_t compactions_ = 0;
  uint64_t budget_evictions_ = 0;
};

}  // namespace dpc::store

#endif  // DPC_STORE_SOLUTION_STORE_H_
