// Append-only solution log: the durable half of the solution store.
//
// File layout:
//
//   header: magic[8] = "DPCLOG1\n"
//   record: magic u32 = 0x44504352 ("RCPD" on disk, little-endian)
//           type u8 (1 = put, 2 = erase/tombstone)
//           key_len u32 | payload_len u64
//           key bytes | payload bytes
//           checksum u64 = FNV-1a over type..payload (everything after
//                          the record magic, before the checksum)
//
// Every append is flushed to the OS before Append returns, so a record
// is process-crash durable the moment Append reports success (the page
// cache survives the process; fsync-against-power-loss is the OS's job
// on close and is deliberately not on the serving path). An append whose
// write or flush fails reports IoError and leaves the log ending at the
// previous record.
//
// Open() replays the file front to back. The first record that fails any
// check — short read, bad magic, absurd length, checksum mismatch — ends
// the replay: everything before it is served, the torn tail is truncated
// away so the next append starts on a clean boundary. A damaged file
// never fails Open; it just comes back shorter.

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
inline constexpr uint8_t kRecordErase = 2;

/// Framing sanity bounds: a length field past these is treated as torn,
/// not honored (a corrupt u64 must not drive a multi-GB resize).
inline constexpr uint32_t kMaxKeyBytes = 1u << 20;
inline constexpr uint64_t kMaxPayloadBytes = 1ull << 32;

/// One replayed record: what Open() hands back so the owner can rebuild
/// its directory without re-reading payloads.
struct LogRecord {
  uint8_t type = kRecordPut;
  std::string key;
  uint64_t payload_offset = 0;
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

  /// Appends and flushes one record and returns the byte offset of its
  /// payload. A failed write or flush returns IoError and the log still
  /// ends at the previous record.
  StatusOr<uint64_t> Append(uint8_t type, const std::string& key,
                            const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu_);
    if (key.size() > kMaxKeyBytes || payload.size() > kMaxPayloadBytes) {
      return Status::InvalidArgument("solution log record too large");
    }
    if (std::fseek(file_, static_cast<long>(end_offset_), SEEK_SET) != 0) {
      return Status::IoError("solution log seek failed");
    }
    // Frame head + body staged in one buffer so a record hits the FILE
    // buffer as a unit.
    std::string rec;
    rec.reserve(kRecordHeadBytes + key.size() + payload.size() +
                sizeof(uint64_t));
    AppendRaw(kRecordMagic, &rec);
    AppendRaw(type, &rec);
    AppendRaw(static_cast<uint32_t>(key.size()), &rec);
    AppendRaw(static_cast<uint64_t>(payload.size()), &rec);
    rec.append(key);
    rec.append(payload);
    const uint64_t checksum =
        Fnv1aBytes(rec.data() + sizeof(kRecordMagic),
                   rec.size() - sizeof(kRecordMagic));
    AppendRaw(checksum, &rec);
    if (std::fwrite(rec.data(), 1, rec.size(), file_) != rec.size() ||
        std::fflush(file_) != 0) {
      // end_offset_ stays put: the next append overwrites the partial
      // record, and replay cuts off any torn tail it leaves.
      std::clearerr(file_);
      return Status::IoError("solution log append failed");
    }
    const uint64_t payload_offset =
        end_offset_ + kRecordHeadBytes + key.size();
    end_offset_ += rec.size();
    return payload_offset;
  }

  /// Reads `bytes` payload bytes at `offset` (an offset Append or Open
  /// returned).
  Status ReadPayload(uint64_t offset, uint64_t bytes, std::string* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
      return Status::IoError("solution log seek failed");
    }
    out->resize(static_cast<size_t>(bytes));
    if (bytes > 0 &&
        std::fread(out->data(), 1, out->size(), file_) != out->size()) {
      return Status::IoError("solution log short read");
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
  static constexpr uint64_t kRecordHeadBytes =
      sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint32_t) + sizeof(uint64_t);

  SolutionLog(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  template <typename T>
  static void AppendRaw(const T& v, std::string* out) {
    out->append(reinterpret_cast<const char*>(&v), sizeof(T));
  }

  /// Front-to-back replay; stops at the first invalid record and
  /// truncates the file there.
  Status Replay(std::vector<LogRecord>* replayed) {
    replayed->clear();
    std::rewind(file_);
    char magic[sizeof(kLogMagic)];
    if (std::fread(magic, 1, sizeof(magic), file_) != sizeof(magic) ||
        std::memcmp(magic, kLogMagic, sizeof(kLogMagic)) != 0) {
      return Status::IoError("not a solution log (bad header): " + path_);
    }
    uint64_t valid_end = sizeof(kLogMagic);
    for (;;) {
      LogRecord rec;
      std::string body;  // type..payload — the checksummed span
      uint32_t rec_magic = 0;
      uint32_t key_len = 0;
      uint64_t payload_len = 0;
      uint64_t stored_checksum = 0;
      if (!ReadRaw(&rec_magic) || rec_magic != kRecordMagic) break;
      if (!ReadRaw(&rec.type) ||
          (rec.type != kRecordPut && rec.type != kRecordErase)) {
        break;
      }
      if (!ReadRaw(&key_len) || key_len > kMaxKeyBytes) break;
      if (!ReadRaw(&payload_len) || payload_len > kMaxPayloadBytes) break;
      rec.key.resize(key_len);
      if (key_len > 0 &&
          std::fread(rec.key.data(), 1, key_len, file_) != key_len) {
        break;
      }
      rec.payload_offset = valid_end + kRecordHeadBytes + key_len;
      rec.payload_bytes = payload_len;
      body.resize(static_cast<size_t>(payload_len));
      if (payload_len > 0 &&
          std::fread(body.data(), 1, body.size(), file_) != body.size()) {
        break;
      }
      if (!ReadRaw(&stored_checksum)) break;
      uint64_t h = Fnv1aBytes(&rec.type, sizeof(rec.type));
      h = Fnv1aBytes(&key_len, sizeof(key_len), h);
      h = Fnv1aBytes(&payload_len, sizeof(payload_len), h);
      h = Fnv1aBytes(rec.key.data(), rec.key.size(), h);
      h = Fnv1aBytes(body.data(), body.size(), h);
      if (h != stored_checksum) break;
      valid_end = rec.payload_offset + payload_len + sizeof(uint64_t);
      replayed->push_back(std::move(rec));
    }
    // Drop the torn tail so the next append starts on a record boundary.
    if (ftruncate(fileno(file_), static_cast<off_t>(valid_end)) != 0) {
      return Status::IoError("solution log truncate failed: " + path_);
    }
    std::fseek(file_, 0, SEEK_END);
    end_offset_ = valid_end;
    return Status::Ok();
  }

  template <typename T>
  bool ReadRaw(T* v) {
    return std::fread(v, 1, sizeof(T), file_) == sizeof(T);
  }

  const std::string path_;
  std::FILE* file_ = nullptr;
  mutable std::mutex mu_;
  uint64_t end_offset_ = 0;
};

}  // namespace dpc::store

#endif  // DPC_STORE_SOLUTION_LOG_H_
