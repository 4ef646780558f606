// SolutionStore — the persistence facade the serve layer talks to:
//
//   Put(key, solution)  encode → append to the log → directory points at
//                       the new record (old one is superseded in place,
//                       reclaimed at the next compaction)
//   Fetch(key)          log read + decode; null on absent or damaged
//                       records — a damaged key goes cold, it never throws
//   Erase(key)          tombstone append + directory removal
//   Compact()           rewrite live records to <path>.compact, atomic
//                       rename over the log, rebuild offsets
//
// Disk budget: when the log grows past disk_budget_bytes, the oldest puts
// are evicted until the LIVE set fits, then a compaction materializes the
// reclaim. Put never fails for budget reasons — the budget bounds the
// file between enforcement points, not mid-append.
//
// Decoded solutions are kept in memory by exactly one tier, the serve
// layer's SolutionCache; the store holds only bytes on disk.
//
// Thread safety: one mutex over directory + compaction (the log
// has its own for raw appends/reads). Fetch holds it across the disk
// read — promotion convoys serialize on the store, never on the serve
// cache's lock (serve/solution_cache.h calls the store OUTSIDE its own
// critical sections).

#ifndef DPC_STORE_SOLUTION_STORE_H_
#define DPC_STORE_SOLUTION_STORE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/dpc.h"
#include "core/status.h"
#include "store/directory.h"
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
    uint64_t erases = 0;
    uint64_t fetches = 0;
    uint64_t log_reads = 0;         ///< fetches that read + decoded the log
    uint64_t decode_failures = 0;   ///< damaged records dropped at fetch
    uint64_t compactions = 0;
    uint64_t budget_evictions = 0;  ///< keys dropped by the disk budget
    uint64_t log_bytes = 0;         ///< current on-disk file size
    uint64_t live_solutions = 0;    ///< directory size
    uint64_t live_payload_bytes = 0;
  };

  /// Opens (creating if absent) the store whose log lives at `path`,
  /// replaying the log to rebuild the directory. Torn tails are
  /// truncated; a file that is not a solution log is an IoError.
  static StatusOr<std::unique_ptr<SolutionStore>> Open(
      const std::string& path, const SolutionStoreOptions& options = {}) {
    std::vector<LogRecord> records;
    auto log = SolutionLog::Open(path, &records);
    if (!log.ok()) return log.status();
    std::unique_ptr<SolutionStore> s(
        new SolutionStore(path, options, std::move(log).value()));
    for (const LogRecord& rec : records) {
      if (rec.type == kRecordPut) {
        s->dir_.Put(rec.key, DirectoryEntry{rec.payload_offset,
                                            rec.payload_bytes, s->next_seq_++});
      } else {
        s->dir_.Erase(rec.key);
      }
    }
    return s;
  }

  /// Durably records `solution` under `key` (write-through: the record is
  /// in the OS page cache when this returns Ok).
  Status Put(const std::string& key, const DpcSolution& solution) {
    std::string payload;
    EncodeSolution(solution, &payload);
    std::lock_guard<std::mutex> lock(mu_);
    auto offset = log_->Append(kRecordPut, key, payload);
    if (!offset.ok()) return offset.status();
    dir_.Put(key, DirectoryEntry{offset.value(),
                                 static_cast<uint64_t>(payload.size()),
                                 next_seq_++});
    ++puts_;
    return EnforceDiskBudgetLocked();
  }

  /// Returns the stored solution or null (absent, or damaged — the
  /// damaged key is dropped so the caller simply goes cold for it).
  std::shared_ptr<const DpcSolution> Fetch(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    ++fetches_;
    const DirectoryEntry* entry = dir_.Find(key);
    if (entry == nullptr) return nullptr;
    std::string payload;
    Status read = log_->ReadPayload(entry->offset, entry->payload_bytes,
                                    &payload);
    if (read.ok()) ++log_reads_;
    StatusOr<DpcSolution> decoded =
        read.ok() ? DecodeSolution(payload)
                  : StatusOr<DpcSolution>(read);
    if (!decoded.ok()) {
      ++decode_failures_;
      dir_.Erase(key);
      return nullptr;
    }
    return std::make_shared<const DpcSolution>(std::move(decoded).value());
  }

  bool Contains(const std::string& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return dir_.Find(key) != nullptr;
  }

  /// Tombstones `key`; the payload is reclaimed at the next compaction.
  Status Erase(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (dir_.Find(key) == nullptr) return Status::Ok();
    auto offset = log_->Append(kRecordErase, key, std::string());
    if (!offset.ok()) return offset.status();
    dir_.Erase(key);
    ++erases_;
    return Status::Ok();
  }

  /// Rewrites the log keeping only live records (newest version of each
  /// directory key; tombstoned, superseded and budget-evicted records
  /// are dropped), then atomically renames it into place.
  Status Compact() {
    std::lock_guard<std::mutex> lock(mu_);
    return CompactLocked();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    Stats out;
    out.puts = puts_;
    out.erases = erases_;
    out.fetches = fetches_;
    out.log_reads = log_reads_;
    out.decode_failures = decode_failures_;
    out.compactions = compactions_;
    out.budget_evictions = budget_evictions_;
    out.log_bytes = log_->size_bytes();
    out.live_solutions = dir_.size();
    out.live_payload_bytes = dir_.live_payload_bytes();
    return out;
  }

  const std::string& path() const { return path_; }

 private:
  SolutionStore(std::string path, const SolutionStoreOptions& options,
                std::unique_ptr<SolutionLog> log)
      : path_(std::move(path)),
        options_(options),
        log_(std::move(log)) {}

  /// On-disk bytes the live set would occupy in a fresh log.
  uint64_t LiveFileBytesLocked() const {
    uint64_t bytes = SolutionLog::kHeaderBytes;
    dir_.ForEach([&](const std::string& key, const DirectoryEntry& entry) {
      bytes += SolutionLog::RecordBytes(key.size(), entry.payload_bytes);
    });
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
    while (dir_.size() > 1 &&
           LiveFileBytesLocked() > options_.disk_budget_bytes) {
      dir_.Erase(dir_.OldestKey());
      ++budget_evictions_;
    }
    return CompactLocked();
  }

  Status CompactLocked() {
    const std::string tmp_path = path_ + ".compact";
    std::remove(tmp_path.c_str());
    // Snapshot live payloads from the old log before touching the file.
    std::vector<std::pair<std::string, std::string>> live;
    live.reserve(dir_.size());
    Status failed = Status::Ok();
    dir_.ForEach([&](const std::string& key, const DirectoryEntry& entry) {
      if (!failed.ok()) return;
      std::string payload;
      Status read =
          log_->ReadPayload(entry.offset, entry.payload_bytes, &payload);
      if (!read.ok()) {
        failed = read;
        return;
      }
      live.emplace_back(key, std::move(payload));
    });
    if (!failed.ok()) return failed;
    {
      std::vector<LogRecord> none;
      auto tmp = SolutionLog::Open(tmp_path, &none);
      if (!tmp.ok()) return tmp.status();
      for (const auto& [key, payload] : live) {
        auto offset = tmp.value()->Append(kRecordPut, key, payload);
        if (!offset.ok()) return offset.status();
      }
      // tmp's FILE closes here, before the rename.
    }
    log_.reset();  // close the old log before renaming over it
    if (std::rename(tmp_path.c_str(), path_.c_str()) != 0) {
      return Status::IoError("solution log compaction rename failed: " +
                             path_);
    }
    std::vector<LogRecord> records;
    auto reopened = SolutionLog::Open(path_, &records);
    if (!reopened.ok()) return reopened.status();
    log_ = std::move(reopened).value();
    Directory fresh;
    for (const LogRecord& rec : records) {
      fresh.Put(rec.key, DirectoryEntry{rec.payload_offset, rec.payload_bytes,
                                        next_seq_++});
    }
    dir_ = std::move(fresh);
    ++compactions_;
    return Status::Ok();
  }

  const std::string path_;
  const SolutionStoreOptions options_;
  mutable std::mutex mu_;
  std::unique_ptr<SolutionLog> log_;
  Directory dir_;
  uint64_t next_seq_ = 0;
  uint64_t puts_ = 0;
  uint64_t erases_ = 0;
  uint64_t fetches_ = 0;
  uint64_t log_reads_ = 0;
  uint64_t decode_failures_ = 0;
  uint64_t compactions_ = 0;
  uint64_t budget_evictions_ = 0;
};

}  // namespace dpc::store

#endif  // DPC_STORE_SOLUTION_STORE_H_
