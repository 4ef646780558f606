// Append-only solution log: the durable half of the solution store.
//
// File layout:
//
//   header: magic[8] = "DPCLOG1\n"
//   record: magic u32 = 0x44504352 ("RCPD" on disk, little-endian)
//           type u8 (= 1, put — the only record type)
//           key_len u32 | payload_len u64
//           key bytes | payload bytes
//           checksum u64 = FNV-1a over type..payload (everything after
//                          the record magic, before the checksum)
//
// Read() is the one way back in: it parses the record at an offset and
// verifies its checksum. Replay, the store's fetch and compaction all go
// through it, so no payload leaves the log unverified.
//
// Every append is flushed to the OS before Append returns, so a record
// is process-crash durable the moment Append reports success (the page
// cache survives the process; fsync-against-power-loss is the OS's job
// on close and is deliberately not on the serving path). An append whose
// write or flush fails reports IoError and leaves the log ending at the
// previous record.
//
// Open() replays the file front to back. The first record Read refuses
// — short read, bad magic, a type other than put, a length past the end
// of the file, checksum mismatch — ends the replay: everything before it
// is served, the torn tail is truncated away so the next append starts
// on a clean boundary. A damaged file never fails Open; it just comes
// back shorter.

#ifndef DPC_STORE_SOLUTION_LOG_H_
#define DPC_STORE_SOLUTION_LOG_H_

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/status.h"

namespace dpc::store {

inline constexpr char kLogMagic[8] = {'D', 'P', 'C', 'L', 'O', 'G', '1', '\n'};
inline constexpr uint32_t kRecordMagic = 0x44504352u;
inline constexpr uint8_t kRecordPut = 1;

/// Framing sanity bounds: Append refuses a longer key or payload, and
/// Read treats a longer length field as damage.
inline constexpr uint32_t kMaxKeyBytes = 1u << 20;
inline constexpr uint64_t kMaxPayloadBytes = 1ull << 32;

/// One replayed record: what Open() hands back so the owner can rebuild
/// its key map without keeping payloads.
struct LogRecord {
  std::string key;
  uint64_t offset = 0;  ///< byte offset of the record in the log
  uint64_t payload_bytes = 0;
};

class SolutionLog {
 public:
  SolutionLog(const SolutionLog&) = delete;
  SolutionLog& operator=(const SolutionLog&) = delete;

  ~SolutionLog() {
    if (file_ != nullptr) std::fclose(file_);
  }

  /// Opens (creating if absent) the log at `path`, replays every valid
  /// record into *replayed, and truncates any torn tail.
  static StatusOr<std::unique_ptr<SolutionLog>> Open(
      const std::string& path, std::vector<LogRecord>* replayed) {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    const bool fresh = f == nullptr;
    if (fresh) f = std::fopen(path.c_str(), "w+b");
    if (f == nullptr) {
      return Status::IoError("cannot open solution log: " + path);
    }
    std::unique_ptr<SolutionLog> log(new SolutionLog(path, f));
    if (fresh) {
      if (std::fwrite(kLogMagic, 1, sizeof(kLogMagic), f) !=
              sizeof(kLogMagic) ||
          std::fflush(f) != 0) {
        return Status::IoError("cannot write solution log header: " + path);
      }
      log->end_offset_ = sizeof(kLogMagic);
      replayed->clear();
      return log;
    }
    Status replay = log->Replay(replayed);
    if (!replay.ok()) return replay;
    return log;
  }

  /// Appends and flushes one put record and returns its byte offset. The
  /// record is hashed once and written from the caller's buffers. A
  /// failed write or flush returns IoError and the log still ends at the
  /// previous record.
  StatusOr<uint64_t> Append(const std::string& key,
                            const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    if (key.size() > kMaxKeyBytes || payload.size() > kMaxPayloadBytes) {
      return Status::InvalidArgument("solution log record too large");
    }
    if (std::fseek(file_, static_cast<long>(end_offset_), SEEK_SET) != 0) {
      return Status::IoError("solution log seek failed");
    }
    char head[kRecordHeadBytes];
    const uint32_t key_len = static_cast<uint32_t>(key.size());
    const uint64_t payload_len = payload.size();
    std::memcpy(head, &kRecordMagic, sizeof(kRecordMagic));
    std::memcpy(head + 4, &kRecordPut, sizeof(kRecordPut));
    std::memcpy(head + 5, &key_len, sizeof(key_len));
    std::memcpy(head + 9, &payload_len, sizeof(payload_len));
    const uint64_t checksum = Checksum(head, key, payload);
    if (std::fwrite(head, 1, sizeof(head), file_) != sizeof(head) ||
        std::fwrite(key.data(), 1, key.size(), file_) != key.size() ||
        std::fwrite(payload.data(), 1, payload.size(), file_) !=
            payload.size() ||
        std::fwrite(&checksum, 1, sizeof(checksum), file_) !=
            sizeof(checksum) ||
        std::fflush(file_) != 0) {
      // end_offset_ stays put: the next append overwrites the partial
      // record, and replay cuts off any torn tail it leaves.
      std::clearerr(file_);
      return Status::IoError("solution log append failed");
    }
    const uint64_t offset = end_offset_;
    end_offset_ += RecordBytes(key.size(), payload.size());
    return offset;
  }

  /// Parses the record at `offset` (one Append returned or Open replayed)
  /// into *key and *payload and verifies its checksum. Every length is
  /// checked against the bytes left in the log before anything is
  /// allocated for it. A record that fails any check is an IoError.
  Status Read(uint64_t offset, std::string* key, std::string* payload) {
    std::lock_guard<std::mutex> lock(mu_);
    char head[kRecordHeadBytes];
    if (offset > end_offset_ || end_offset_ - offset < RecordBytes(0, 0) ||
        std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
        std::fread(head, 1, sizeof(head), file_) != sizeof(head)) {
      return Status::IoError("solution log short read");
    }
    uint32_t magic = 0;
    uint8_t type = 0;
    uint32_t key_len = 0;
    uint64_t payload_len = 0;
    std::memcpy(&magic, head, sizeof(magic));
    std::memcpy(&type, head + 4, sizeof(type));
    std::memcpy(&key_len, head + 5, sizeof(key_len));
    std::memcpy(&payload_len, head + 9, sizeof(payload_len));
    if (magic != kRecordMagic || type != kRecordPut ||
        key_len > kMaxKeyBytes || payload_len > kMaxPayloadBytes ||
        RecordBytes(key_len, payload_len) > end_offset_ - offset) {
      return Status::IoError("solution log record malformed");
    }
    key->resize(key_len);
    payload->resize(static_cast<size_t>(payload_len));
    uint64_t stored = 0;
    if (std::fread(key->data(), 1, key->size(), file_) != key->size() ||
        std::fread(payload->data(), 1, payload->size(), file_) !=
            payload->size() ||
        std::fread(&stored, 1, sizeof(stored), file_) != sizeof(stored)) {
      return Status::IoError("solution log short read");
    }
    if (Checksum(head, *key, *payload) != stored) {
      return Status::IoError("solution log checksum mismatch");
    }
    return Status::Ok();
  }

  /// Total file size in bytes (header + all records).
  uint64_t size_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return end_offset_;
  }

  const std::string& path() const { return path_; }

  /// Exact on-disk footprint of one record with this key/payload size —
  /// what disk-budget accounting charges per live entry.
  static uint64_t RecordBytes(size_t key_bytes, uint64_t payload_bytes) {
    return kRecordHeadBytes + key_bytes + payload_bytes + sizeof(uint64_t);
  }

  static constexpr uint64_t kHeaderBytes = sizeof(kLogMagic);

 private:
  /// magic u32 | type u8 | key_len u32 | payload_len u64, packed.
  static constexpr size_t kRecordHeadBytes =
      sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint32_t) + sizeof(uint64_t);

  SolutionLog(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  /// FNV-1a over the record's type..payload span, which lies in three
  /// buffers: the head after its magic, the key and the payload.
  static uint64_t Checksum(const char (&head)[kRecordHeadBytes],
                           const std::string& key,
                           const std::string& payload) {
    uint64_t h = Fnv1aBytes(head + sizeof(kRecordMagic),
                            kRecordHeadBytes - sizeof(kRecordMagic));
    h = Fnv1aBytes(key.data(), key.size(), h);
    return Fnv1aBytes(payload.data(), payload.size(), h);
  }

  /// Front-to-back replay; stops at the first record Read refuses and
  /// truncates the file there.
  Status Replay(std::vector<LogRecord>* replayed) {
    replayed->clear();
    std::rewind(file_);
    char magic[sizeof(kLogMagic)];
    if (std::fread(magic, 1, sizeof(magic), file_) != sizeof(magic) ||
        std::memcmp(magic, kLogMagic, sizeof(kLogMagic)) != 0) {
      return Status::IoError("not a solution log (bad header): " + path_);
    }
    // Read bounds every record by the file's end.
    const long file_end =
        std::fseek(file_, 0, SEEK_END) == 0 ? std::ftell(file_) : -1;
    if (file_end < 0) {
      return Status::IoError("solution log seek failed: " + path_);
    }
    end_offset_ = static_cast<uint64_t>(file_end);
    uint64_t valid_end = sizeof(kLogMagic);
    std::string key;
    std::string payload;
    while (Read(valid_end, &key, &payload).ok()) {
      replayed->push_back(LogRecord{key, valid_end, payload.size()});
      valid_end += RecordBytes(key.size(), payload.size());
    }
    // Drop the torn tail so the next append starts on a record boundary.
    if (ftruncate(fileno(file_), static_cast<off_t>(valid_end)) != 0) {
      return Status::IoError("solution log truncate failed: " + path_);
    }
    end_offset_ = valid_end;
    return Status::Ok();
  }

  const std::string path_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mu_;
  uint64_t end_offset_ = 0;
};

}  // namespace dpc::store

#endif  // DPC_STORE_SOLUTION_LOG_H_
