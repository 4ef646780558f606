// The store/ subsystem: versioned solution serialization (bit-exact
// roundtrip, size formula, refusal of old versions, out-of-range ids and
// overflowing counts; every truncation and byte flip of a record yields
// a Status or a labelable solution), the append-only log (replay,
// torn-tail truncation, mid-log corruption, lengths past the file's end,
// header mismatch), SolutionStore end-to-end (put/fetch/reopen, byte
// accounting, failed appends failing the put, damaged and old-version
// records going cold at fetch and compaction, disk-budget eviction), and
// the warm-restart test: a server restarted over the same log answers a
// re-threshold WARM — zero recomputes, bit-identical labels.
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/registry.h"
#include "data/generators.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/solution_cache.h"
#include "store/solution_format.h"
#include "store/solution_log.h"
#include "store/solution_store.h"
#include "tests/test_util.h"

namespace {

std::string TmpPath(const std::string& name) {
  return "/tmp/dpc_store_test_" + std::to_string(::getpid()) + "_" + name;
}

/// A fully populated synthetic solution with every field class the
/// format persists: infinities and negative ids.
dpc::DpcSolution MakeSolution(dpc::PointId n, double salt = 0.0) {
  dpc::DpcSolution s;
  s.algorithm = "ex-dpc";
  s.compute.d_cut = 2000.0 + salt;
  s.compute.epsilon = 0.125;
  s.compute_cost_seconds = 0.25 + salt;
  s.rho.resize(static_cast<size_t>(n));
  s.delta.resize(static_cast<size_t>(n));
  s.dependency.resize(static_cast<size_t>(n));
  for (dpc::PointId i = 0; i < n; ++i) {
    s.rho[static_cast<size_t>(i)] = static_cast<double>(n - i) + salt;
    s.delta[static_cast<size_t>(i)] =
        i == 0 ? std::numeric_limits<double>::infinity()
               : 1.0 / static_cast<double>(i);
    s.dependency[static_cast<size_t>(i)] = i - 1;  // 0 points at -1
  }
  s.density_order = dpc::DensityOrder(s.rho);
  return s;
}

void CheckSolutionsBitIdentical(const dpc::DpcSolution& a,
                                const dpc::DpcSolution& b) {
  CHECK(a.algorithm == b.algorithm);
  CHECK_EQ(a.compute.d_cut, b.compute.d_cut);
  CHECK_EQ(a.compute.epsilon, b.compute.epsilon);
  CHECK_EQ(a.compute_cost_seconds, b.compute_cost_seconds);
  CHECK_EQ(a.interrupted(), b.interrupted());
  CHECK(a.rho == b.rho);
  // delta holds an infinity — vector== is exact on it, which is the point.
  CHECK(a.delta == b.delta);
  CHECK(a.dependency == b.dependency);
  CHECK(a.density_order == b.density_order);
}

/// `s` encoded as a record of another format version, laid out as that
/// version was, so that the version check itself is what refuses it.
/// Version 1 carried an input fingerprint u64 right after the version
/// field and closed with an FNV-1a checksum; version 2 dropped the
/// fingerprint and kept the checksum.
std::string EncodeAsVersion(const dpc::DpcSolution& s, uint32_t version) {
  std::string buf;
  dpc::store::EncodeSolution(s, &buf);
  std::memcpy(&buf[4], &version, sizeof(version));  // after the 4-byte magic
  if (version == 1) {
    const uint64_t fingerprint = 0xfeedbeefcafe0000ull;
    buf.insert(8, reinterpret_cast<const char*>(&fingerprint),
               sizeof(fingerprint));
  }
  if (version <= 2) {
    const uint64_t checksum = dpc::Fnv1aBytes(buf.data(), buf.size());
    buf.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  }
  return buf;
}

/// A well-formed header (current version, algorithm "x") followed by a
/// rho count of 2^61 + 1 and eight bytes: count * sizeof(double) wraps to
/// 8, so a bounds check that multiplies first lets it through.
std::string EncodeOverflowingCount() {
  std::string buf(dpc::store::kSolutionMagic, 4);
  const uint32_t version = dpc::store::kSolutionFormatVersion;
  const double params[3] = {1.0, 0.0, 0.0};  // d_cut, epsilon, cost
  const uint32_t flags = 0;
  const uint32_t algo_len = 1;
  const int64_t count = (int64_t{1} << 61) + 1;
  const double rho0 = 1.0;
  buf.append(reinterpret_cast<const char*>(&version), sizeof(version));
  buf.append(reinterpret_cast<const char*>(params), sizeof(params));
  buf.append(reinterpret_cast<const char*>(&flags), sizeof(flags));
  buf.append(reinterpret_cast<const char*>(&algo_len), sizeof(algo_len));
  buf.append("x");
  buf.append(reinterpret_cast<const char*>(&count), sizeof(count));
  buf.append(reinterpret_cast<const char*>(&rho0), sizeof(rho0));
  return buf;
}

/// Decodes `buf`: it must be refused with a Status, or come back with
/// consistent lengths and in-range ids — and then it must label.
void CheckRefusedOrLabelable(const std::string& buf) {
  const auto decoded = dpc::store::DecodeSolution(buf);
  if (!decoded.ok()) {
    CHECK(decoded.status().code() == dpc::StatusCode::kInvalidArgument);
    return;
  }
  const dpc::DpcSolution& s = decoded.value();
  const size_t n = s.rho.size();
  CHECK_EQ(s.delta.size(), n);
  CHECK_EQ(s.dependency.size(), n);
  CHECK_EQ(s.density_order.size(), s.interrupted() ? size_t{0} : n);
  const auto n_ids = static_cast<dpc::PointId>(n);
  for (const dpc::PointId dep : s.dependency) CHECK(dep >= -1 && dep < n_ids);
  for (const dpc::PointId id : s.density_order) CHECK(id >= 0 && id < n_ids);
  CHECK_EQ(dpc::LabelSolution(s, dpc::ThresholdSpec{1.0, 0.5}).label.size(),
           n);
}

void TestFormatRoundtrip() {
  const dpc::DpcSolution original = MakeSolution(37);
  std::string buf;
  dpc::store::EncodeSolution(original, &buf);
  // The size formula is exact — the serve cache's byte accounting charges
  // precisely what the log stores.
  CHECK_EQ(buf.size(), dpc::store::SerializedSolutionBytes(original));

  auto decoded = dpc::store::DecodeSolution(buf);
  CHECK(decoded.ok());
  CheckSolutionsBitIdentical(original, decoded.value());

  // An interrupted solve (empty density_order, flag set) round-trips too.
  dpc::DpcSolution interrupted = MakeSolution(5);
  interrupted.stats.interrupted = true;
  interrupted.density_order.clear();
  dpc::store::EncodeSolution(interrupted, &buf);
  CHECK_EQ(buf.size(), dpc::store::SerializedSolutionBytes(interrupted));
  auto decoded2 = dpc::store::DecodeSolution(buf);
  CHECK(decoded2.ok());
  CHECK(decoded2.value().interrupted());
  CHECK(decoded2.value().density_order.empty());
}

void TestFormatRejectsDamage() {
  std::string buf;
  dpc::store::EncodeSolution(MakeSolution(16), &buf);

  // A flipped magic or version byte is refused.
  for (const size_t at : {size_t{0}, size_t{5}}) {
    std::string bad = buf;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    CHECK(!dpc::store::DecodeSolution(bad).ok());
  }
  // Every truncation fails cleanly, and so does a trailing byte.
  for (size_t keep = 0; keep < buf.size(); ++keep) {
    CHECK(!dpc::store::DecodeSolution(buf.data(), keep).ok());
  }
  CHECK(!dpc::store::DecodeSolution(buf + '\0').ok());
  // A future format version, version 1 (which also carried the input's
  // fingerprint) and version 2 (which closed with its own checksum) are
  // refused by the version check.
  for (const uint32_t version : {9u, 1u, 2u}) {
    const auto refused =
        dpc::store::DecodeSolution(EncodeAsVersion(MakeSolution(16), version));
    CHECK(!refused.ok());
    CHECK(refused.status().message().find("version") != std::string::npos);
  }
  // An array count whose byte size wraps is refused, not allocated.
  CHECK(!dpc::store::DecodeSolution(EncodeOverflowingCount()).ok());
}

/// The frame checksum is FNV, not a MAC: bytes that carry a valid one can
/// still be hostile. Every single-byte change of a small record — all 255
/// other values at every position — and every truncation of it must
/// decode to a Status or to a solution that is safe to label.
void TestFormatSurvivesEveryByteFlip() {
  dpc::DpcSolution s = MakeSolution(4);
  std::string buf;
  dpc::store::EncodeSolution(s, &buf);
  for (size_t at = 0; at < buf.size(); ++at) {
    for (int delta = 1; delta < 256; ++delta) {
      std::string bad = buf;
      bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) + delta);
      CheckRefusedOrLabelable(bad);
    }
  }
  for (size_t keep = 0; keep <= buf.size(); ++keep) {
    CheckRefusedOrLabelable(buf.substr(0, keep));
  }
}

/// Well-formed records whose ids would send labeling out of bounds: each is encoded as-is (the encoder trusts its input) and must
/// decode to InvalidArgument.
void TestFormatRejectsBadIds() {
  const dpc::PointId n = 16;
  std::vector<dpc::DpcSolution> bad;
  for (const dpc::PointId dep :
       {n, dpc::PointId{-2}, std::numeric_limits<dpc::PointId>::max()}) {
    dpc::DpcSolution s = MakeSolution(n);
    s.dependency[3] = dep;
    bad.push_back(s);
  }
  for (const dpc::PointId id : {n, dpc::PointId{-1}}) {
    dpc::DpcSolution s = MakeSolution(n);
    s.density_order[5] = id;
    bad.push_back(s);
  }
  {
    dpc::DpcSolution s = MakeSolution(n);  // finished solve, no order
    s.density_order.clear();
    bad.push_back(s);
  }
  {
    dpc::DpcSolution s = MakeSolution(n);  // interrupted solve with an order
    s.stats.interrupted = true;
    bad.push_back(s);
  }
  std::string buf;
  for (const dpc::DpcSolution& s : bad) {
    dpc::store::EncodeSolution(s, &buf);
    const auto decoded = dpc::store::DecodeSolution(buf);
    CHECK(!decoded.ok());
    CHECK(decoded.status().code() == dpc::StatusCode::kInvalidArgument);
  }
}

void TestLogAppendReplay() {
  const std::string path = TmpPath("replay.log");
  std::remove(path.c_str());

  std::string p1 = "payload-one";
  std::string p2(1000, 'x');
  uint64_t off1 = 0;
  uint64_t off2 = 0;
  {
    std::vector<dpc::store::LogRecord> replayed;
    auto log = dpc::store::SolutionLog::Open(path, &replayed);
    CHECK(log.ok());
    CHECK(replayed.empty());
    auto a1 = log.value()->Append("k1", p1);
    CHECK(a1.ok());
    off1 = a1.value();
    auto a2 = log.value()->Append("k2", p2);
    CHECK(a2.ok());
    off2 = a2.value();
    CHECK(log.value()->Append("k3", "").ok());
    // The size accounting matches the static per-record formula.
    CHECK_EQ(log.value()->size_bytes(),
             dpc::store::SolutionLog::kHeaderBytes +
                 dpc::store::SolutionLog::RecordBytes(2, p1.size()) +
                 dpc::store::SolutionLog::RecordBytes(2, p2.size()) +
                 dpc::store::SolutionLog::RecordBytes(2, 0));
    // Records read back through the same handle.
    std::string key;
    std::string out;
    CHECK(log.value()->Read(off1, &key, &out).ok());
    CHECK(key == "k1");
    CHECK(out == p1);
  }
  // Reopen: every record replays with the same offsets, keys and sizes.
  std::vector<dpc::store::LogRecord> replayed;
  auto log = dpc::store::SolutionLog::Open(path, &replayed);
  CHECK(log.ok());
  CHECK_EQ(replayed.size(), 3u);
  CHECK(replayed[0].key == "k1");
  CHECK_EQ(replayed[0].offset, off1);
  CHECK_EQ(replayed[1].offset, off2);
  CHECK_EQ(replayed[1].payload_bytes, p2.size());
  CHECK(replayed[2].key == "k3");
  CHECK_EQ(replayed[2].payload_bytes, 0u);
  std::string key;
  std::string out;
  CHECK(log.value()->Read(off2, &key, &out).ok());
  CHECK(key == "k2");
  CHECK(out == p2);
  // An offset that is not a record boundary is refused.
  CHECK(!log.value()->Read(off2 + 1, &key, &out).ok());
  std::remove(path.c_str());
}

/// Truncates `path` to `size` bytes — the torn-write simulator.
void TruncateFile(const std::string& path, long size) {
  CHECK_EQ(truncate(path.c_str(), size), 0);
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  CHECK(f != nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

void TestLogTornTail() {
  const std::string path = TmpPath("torn.log");
  std::remove(path.c_str());
  {
    std::vector<dpc::store::LogRecord> replayed;
    auto log = dpc::store::SolutionLog::Open(path, &replayed);
    CHECK(log.ok());
    CHECK(log.value()->Append("a", "first").ok());
    CHECK(log.value()->Append("b", "second").ok());
    CHECK(log.value()->Append("c", "third").ok());
  }
  // A crash mid-append leaves a partial final record: replay keeps the
  // two complete ones and truncates the tear away.
  TruncateFile(path, FileSize(path) - 3);
  {
    std::vector<dpc::store::LogRecord> replayed;
    auto log = dpc::store::SolutionLog::Open(path, &replayed);
    CHECK(log.ok());
    CHECK_EQ(replayed.size(), 2u);
    CHECK(replayed[1].key == "b");
    // The next append starts on a clean boundary and survives reopen.
    CHECK(log.value()->Append("d", "fourth").ok());
  }
  std::vector<dpc::store::LogRecord> replayed;
  auto log = dpc::store::SolutionLog::Open(path, &replayed);
  CHECK(log.ok());
  CHECK_EQ(replayed.size(), 3u);
  CHECK(replayed[2].key == "d");
  std::remove(path.c_str());
}

void TestLogCorruptMiddle() {
  const std::string path = TmpPath("corrupt.log");
  std::remove(path.c_str());
  long second_start = 0;
  {
    std::vector<dpc::store::LogRecord> replayed;
    auto log = dpc::store::SolutionLog::Open(path, &replayed);
    CHECK(log.ok());
    CHECK(log.value()->Append("a", "first").ok());
    second_start = static_cast<long>(log.value()->size_bytes());
    CHECK(log.value()->Append("b", "second").ok());
    CHECK(log.value()->Append("c", "third").ok());
  }
  // Flip a payload byte inside the middle record: its checksum fails, so
  // replay stops at the last valid record — the corrupt record AND
  // everything after it are dropped (order is the log's only index).
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    CHECK(f != nullptr);
    // 17-byte record head + 1-byte key "b" + 2 -> the 'c' of "second".
    std::fseek(f, second_start + 17 + 1 + 2, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  std::vector<dpc::store::LogRecord> replayed;
  auto log = dpc::store::SolutionLog::Open(path, &replayed);
  CHECK(log.ok());
  CHECK_EQ(replayed.size(), 1u);
  CHECK(replayed[0].key == "a");
  CHECK_EQ(static_cast<long>(log.value()->size_bytes()), second_start);
  std::remove(path.c_str());
}

/// One record frame as the log lays it out, its checksum computed over
/// whatever `body` holds, so only the field under test is wrong.
std::string Frame(uint8_t type, uint32_t key_len, uint64_t payload_len,
                  const std::string& body) {
  std::string f(reinterpret_cast<const char*>(&dpc::store::kRecordMagic), 4);
  f.append(reinterpret_cast<const char*>(&type), sizeof(type));
  f.append(reinterpret_cast<const char*>(&key_len), sizeof(key_len));
  f.append(reinterpret_cast<const char*>(&payload_len), sizeof(payload_len));
  f += body;
  const uint64_t checksum = dpc::Fnv1aBytes(f.data() + 4, f.size() - 4);
  f.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return f;
}

/// Hand-written one-record logs. A well-formed put replays. A tombstone
/// (type 2, which earlier versions wrote) ends the replay like any other
/// damage. A frame whose lengths claim more bytes than the file holds —
/// a 4 GiB payload in a 33-byte file, or the largest key — is refused
/// before anything is allocated for it. Each refused file opens with no
/// records and is cut back to its header.
void TestLogHandWrittenFrames() {
  const std::string path = TmpPath("frames.log");
  const std::string header(dpc::store::kLogMagic, sizeof(dpc::store::kLogMagic));
  const std::string put = Frame(dpc::store::kRecordPut, 1, 2, "kpp");
  const std::vector<std::string> refused = {
      Frame(2, 1, 0, "k"),
      Frame(dpc::store::kRecordPut, 0, dpc::store::kMaxPayloadBytes, ""),
      Frame(dpc::store::kRecordPut, dpc::store::kMaxKeyBytes, 0, ""),
  };
  for (size_t i = 0; i <= refused.size(); ++i) {
    const std::string& frame = i == 0 ? put : refused[i - 1];
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      CHECK(f != nullptr);
      CHECK_EQ(std::fwrite(header.data(), 1, header.size(), f), header.size());
      CHECK_EQ(std::fwrite(frame.data(), 1, frame.size(), f), frame.size());
      std::fclose(f);
    }
    std::vector<dpc::store::LogRecord> replayed;
    auto log = dpc::store::SolutionLog::Open(path, &replayed);
    CHECK(log.ok());
    const size_t kept = i == 0 ? 1 : 0;
    const uint64_t size = header.size() + (i == 0 ? put.size() : 0);
    CHECK_EQ(replayed.size(), kept);
    CHECK_EQ(log.value()->size_bytes(), size);
    CHECK_EQ(FileSize(path), static_cast<long>(size));
  }
  std::remove(path.c_str());
}

void TestLogBadHeader() {
  const std::string path = TmpPath("notalog.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    CHECK(f != nullptr);
    std::fputs("definitely not a solution log", f);
    std::fclose(f);
  }
  std::vector<dpc::store::LogRecord> replayed;
  auto log = dpc::store::SolutionLog::Open(path, &replayed);
  CHECK(!log.ok());
  CHECK(log.status().code() == dpc::StatusCode::kIoError);
  // The store surfaces the same failure (the server then runs storeless).
  auto store = dpc::store::SolutionStore::Open(path);
  CHECK(!store.ok());
  std::remove(path.c_str());
}

void TestStoreRoundtripAndReopen() {
  const std::string path = TmpPath("store.log");
  std::remove(path.c_str());
  const dpc::DpcSolution s1 = MakeSolution(64, 1.0);
  const dpc::DpcSolution s2 = MakeSolution(32, 2.0);
  {
    auto store = dpc::store::SolutionStore::Open(path);
    CHECK(store.ok());
    CHECK(store.value()->Put("k1", s1).ok());
    CHECK(store.value()->Put("k2", s2).ok());
    CHECK(store.value()->Contains("k1"));
    CHECK(!store.value()->Contains("nope"));

    const auto fetched = store.value()->Fetch("k1");
    CHECK(fetched != nullptr);
    CheckSolutionsBitIdentical(s1, *fetched);
    // Every fetch reads + decodes the log: the store keeps no decoded
    // copy (the serve cache is the one memory tier).
    const auto again = store.value()->Fetch("k1");
    CHECK(again != nullptr);
    CheckSolutionsBitIdentical(s1, *again);
    const auto stats = store.value()->stats();
    CHECK_EQ(stats.log_reads, 2u);
    CHECK_EQ(stats.live_solutions, 2u);
  }
  // Reopen: the key map rebuilds from replay and both keys are still
  // bit-identical.
  auto store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  CHECK_EQ(store.value()->stats().live_solutions, 2u);
  const auto fetched = store.value()->Fetch("k1");
  CHECK(fetched != nullptr);
  CheckSolutionsBitIdentical(s1, *fetched);
  const auto fetched2 = store.value()->Fetch("k2");
  CHECK(fetched2 != nullptr);
  CheckSolutionsBitIdentical(s2, *fetched2);
  std::remove(path.c_str());
}

// A failed flush fails the append, so Put never reports Ok for a record
// that did not reach the file. With the file-size limit just above the
// log, Put must fail and the store must count no bytes for it; once the
// limit is restored the same key appends cleanly and survives a reopen.
void TestStoreFailedFlushFailsPut() {
  const std::string path = TmpPath("fsize.log");
  std::remove(path.c_str());
  const dpc::DpcSolution s1 = MakeSolution(8, 1.0);
  const dpc::DpcSolution s2 = MakeSolution(64, 2.0);
  {
    auto store = dpc::store::SolutionStore::Open(path);
    CHECK(store.ok());
    CHECK(store.value()->Put("k1", s1).ok());
    const uint64_t before = store.value()->stats().log_bytes;
    // Writes past the limit then fail with EFBIG instead of raising
    // SIGXFSZ.
    void (*old_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
    rlimit old_limit;
    CHECK_EQ(getrlimit(RLIMIT_FSIZE, &old_limit), 0);
    rlimit low = old_limit;
    low.rlim_cur = static_cast<rlim_t>(before + 16);
    CHECK_EQ(setrlimit(RLIMIT_FSIZE, &low), 0);
    const dpc::Status put = store.value()->Put("k2", s2);
    CHECK_EQ(setrlimit(RLIMIT_FSIZE, &old_limit), 0);
    std::signal(SIGXFSZ, old_handler);
    CHECK(!put.ok());
    CHECK_EQ(store.value()->stats().log_bytes, before);
    CHECK(!store.value()->Contains("k2"));
    CHECK(store.value()->Put("k2", s2).ok());
  }
  auto store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  CHECK_EQ(store.value()->stats().live_solutions, 2u);
  const auto fetched = store.value()->Fetch("k2");
  CHECK(fetched != nullptr);
  CheckSolutionsBitIdentical(s2, *fetched);
  std::remove(path.c_str());
}

void TestStoreDamagedPayloadGoesCold() {
  const std::string path = TmpPath("damaged.log");
  // Splice in a record whose LOG framing is valid but whose payload does
  // not decode: a future format version is what a downgrade after an
  // upgrade would leave behind, versions 1 and 2 what an upgrade finds
  // in an old log, and the overflowing count hostile bytes under a valid
  // checksum.
  const std::vector<std::string> payloads = {
      EncodeAsVersion(MakeSolution(8), 9), EncodeAsVersion(MakeSolution(8), 1),
      EncodeAsVersion(MakeSolution(8), 2), EncodeOverflowingCount()};
  for (const std::string& payload : payloads) {
    std::remove(path.c_str());
    {
      auto store = dpc::store::SolutionStore::Open(path);
      CHECK(store.ok());
      CHECK(store.value()->Put("good", MakeSolution(16)).ok());
    }
    {
      std::vector<dpc::store::LogRecord> replayed;
      auto log = dpc::store::SolutionLog::Open(path, &replayed);
      CHECK(log.ok());
      CHECK(log.value()->Append("other", payload).ok());
    }
    auto store = dpc::store::SolutionStore::Open(path);
    CHECK(store.ok());
    CHECK_EQ(store.value()->stats().live_solutions, 2u);
    // The undecodable key returns null — never crashes — and goes cold (a
    // second fetch doesn't even try the log again); the good key is
    // untouched.
    CHECK(store.value()->Fetch("other") == nullptr);
    CHECK_EQ(store.value()->stats().decode_failures, 1u);
    CHECK(!store.value()->Contains("other"));
    CHECK(store.value()->Fetch("other") == nullptr);
    CHECK_EQ(store.value()->stats().decode_failures, 1u);
    CHECK(store.value()->Fetch("good") != nullptr);
    // The cold key recomputes: a new put of it succeeds and survives a
    // reopen.
    const dpc::DpcSolution fresh = MakeSolution(8, 3.0);
    CHECK(store.value()->Put("other", fresh).ok());
    store = dpc::store::SolutionStore::Open(path);
    CHECK(store.ok());
    const auto fetched = store.value()->Fetch("other");
    CHECK(fetched != nullptr);
    CheckSolutionsBitIdentical(fresh, *fetched);
  }
  std::remove(path.c_str());
}

/// Flips one byte of `path` at `offset` behind the store's back.
void FlipByte(const std::string& path, long offset) {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  CHECK(f != nullptr);
  CHECK_EQ(std::fseek(f, offset, SEEK_SET), 0);
  const int c = std::fgetc(f);
  CHECK(c != EOF);
  CHECK_EQ(std::fseek(f, offset, SEEK_SET), 0);
  std::fputc(c ^ 0x01, f);
  std::fclose(f);
}

/// A payload byte flipped on disk under a live store fails the frame
/// checksum wherever the record is read: Fetch returns null, and Compact
/// leaves the record out instead of re-framing it under a fresh checksum.
void TestStoreFlippedPayloadByte() {
  const std::string path = TmpPath("flipped.log");
  std::remove(path.c_str());
  const dpc::DpcSolution s = MakeSolution(64);
  const uint64_t payload = dpc::store::SerializedSolutionBytes(s);
  const uint64_t record = dpc::store::SolutionLog::RecordBytes(2, payload);
  auto store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  for (const char* key : {"k0", "k1", "k2"}) {
    CHECK(store.value()->Put(key, s).ok());
  }
  // Record i starts at header + i * record; its payload after the 17-byte
  // frame head and the 2-byte key. Flip a byte mid-payload in k0 and k1.
  for (const uint64_t i : {0u, 1u}) {
    FlipByte(path, static_cast<long>(dpc::store::SolutionLog::kHeaderBytes +
                                      i * record + 17 + 2 + payload / 2));
  }
  CHECK(store.value()->Fetch("k0") == nullptr);
  CHECK_EQ(store.value()->stats().decode_failures, 1u);
  CHECK(store.value()->Contains("k1"));  // not read yet

  CHECK(store.value()->Compact().ok());
  const auto stats = store.value()->stats();
  CHECK_EQ(stats.decode_failures, 2u);
  CHECK_EQ(stats.live_solutions, 1u);
  CHECK(!store.value()->Contains("k1"));
  CHECK_EQ(stats.log_bytes, dpc::store::SolutionLog::kHeaderBytes + record);
  const auto kept = store.value()->Fetch("k2");
  CHECK(kept != nullptr);
  CheckSolutionsBitIdentical(s, *kept);
  // The compacted file replays cleanly: nothing is cut off on reopen.
  store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  CHECK_EQ(store.value()->stats().live_solutions, 1u);
  CHECK_EQ(FileSize(path),
           static_cast<long>(dpc::store::SolutionLog::kHeaderBytes + record));
  CHECK(store.value()->Fetch("k2") != nullptr);
  std::remove(path.c_str());
}

void TestStoreCompaction() {
  const std::string path = TmpPath("compact.log");
  std::remove(path.c_str());
  auto store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  const dpc::DpcSolution v1 = MakeSolution(64, 1.0);
  const dpc::DpcSolution v2 = MakeSolution(80, 2.0);
  CHECK(store.value()->Put("k1", v1).ok());
  CHECK(store.value()->Put("k1", v2).ok());  // supersedes v1
  // Only the newest payload of a key counts as live.
  CHECK_EQ(store.value()->stats().live_payload_bytes,
           dpc::store::SerializedSolutionBytes(v2));
  const uint64_t before = store.value()->stats().log_bytes;

  // Compaction drops the superseded v1: the file shrinks to exactly the
  // live set.
  CHECK(store.value()->Compact().ok());
  const auto stats = store.value()->stats();
  CHECK(stats.log_bytes < before);
  CHECK_EQ(stats.log_bytes,
           dpc::store::SolutionLog::kHeaderBytes +
               dpc::store::SolutionLog::RecordBytes(
                   2, dpc::store::SerializedSolutionBytes(v2)));
  CHECK_EQ(stats.compactions, 1u);
  CHECK_EQ(stats.live_solutions, 1u);
  CHECK_EQ(stats.live_payload_bytes, dpc::store::SerializedSolutionBytes(v2));
  // The survivor is the NEWEST version, still bit-identical.
  const auto fetched = store.value()->Fetch("k1");
  CHECK(fetched != nullptr);
  CheckSolutionsBitIdentical(v2, *fetched);
  // And the compacted file replays cleanly.
  store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  const auto reread = store.value()->Fetch("k1");
  CHECK(reread != nullptr);
  CheckSolutionsBitIdentical(v2, *reread);
  std::remove(path.c_str());
}

void TestStoreDiskBudget() {
  const std::string path = TmpPath("budget.log");
  std::remove(path.c_str());
  const dpc::DpcSolution sample = MakeSolution(64);
  const uint64_t record =
      dpc::store::SolutionLog::RecordBytes(
          2, dpc::store::SerializedSolutionBytes(sample));
  dpc::store::SolutionStoreOptions options;
  // Room for three live records; the budget bounds the file at every
  // enforcement point, evicting oldest puts first.
  options.disk_budget_bytes =
      dpc::store::SolutionLog::kHeaderBytes + 3 * record + record / 2;
  auto store = dpc::store::SolutionStore::Open(path, options);
  CHECK(store.ok());
  for (int i = 0; i < 8; ++i) {
    CHECK(store.value()
              ->Put("k" + std::to_string(i), MakeSolution(64, i))
              .ok());
    CHECK(store.value()->stats().log_bytes <= options.disk_budget_bytes);
  }
  const auto stats = store.value()->stats();
  CHECK_EQ(stats.live_solutions, 3u);
  CHECK_EQ(stats.budget_evictions, 5u);
  CHECK(stats.compactions >= 1u);
  // Every compaction keeps the age order, so the three newest keys are
  // the survivors and every older one is gone.
  for (int i = 0; i < 8; ++i) {
    CHECK_EQ(store.value()->Contains("k" + std::to_string(i)), i >= 5);
  }
  std::remove(path.c_str());
}

/// The tentpole's acceptance test, in-process: server A computes against
/// a store-backed cache and dies; server B over the same log answers a
/// re-threshold request WARM — zero algorithm executions, at least one
/// promotion, labels bit-identical to what A served.
void TestServerRestartWarm() {
  const std::string path = TmpPath("restart.log");
  std::remove(path.c_str());
  dpc::data::GaussianBenchmarkParams gen;
  gen.num_points = 700;
  gen.num_clusters = 3;
  gen.seed = 17;
  const dpc::PointSet points = dpc::data::GaussianBenchmark(gen);

  dpc::DpcParams params;
  params.d_cut = 2000.0;
  params.rho_min = 2.0;
  params.delta_min = 8000.0;

  dpc::serve::ClusterRequest request;
  request.dataset = "pts";
  request.algorithm = "ex-dpc";
  request.params = params;

  dpc::serve::ClusterRequest rethreshold = request;
  rethreshold.kind = dpc::serve::RequestKind::kRethreshold;
  rethreshold.params.rho_min = 4.0;
  rethreshold.params.delta_min = 6000.0;

  std::vector<int64_t> labels_before;
  {
    dpc::serve::ServerOptions options;
    options.pool_threads = 2;
    options.store_path = path;
    dpc::serve::ClusterServer a(options);
    a.datasets().Register("pts", points);
    CHECK(a.Submit(request).get().status.ok());
    const auto r = a.Submit(rethreshold).get();
    CHECK(r.status.ok());
    labels_before = r.result->label;
    CHECK_EQ(a.stats().recomputes, 1u);
  }  // server A is gone; only the log remains

  dpc::serve::ServerOptions options;
  options.pool_threads = 2;
  options.store_path = path;
  dpc::serve::ClusterServer b(options);
  b.datasets().Register("pts", points);
  const auto warm = b.Submit(rethreshold).get();
  CHECK(warm.status.ok());
  CHECK(warm.cache_hit);
  const auto stats = b.stats();
  CHECK_EQ(stats.recomputes, 0u);  // promoted, never recomputed
  CHECK(stats.warm_misses >= 1u);
  CHECK(stats.promotions >= 1u);
  CHECK(dpc::test::BitIdenticalLabels(warm.result->label, labels_before));
  // A full cluster request at yet another threshold is also finalize-only.
  dpc::serve::ClusterRequest cluster = request;
  cluster.params.rho_min = 3.0;
  const auto c = b.Submit(cluster).get();
  CHECK(c.status.ok());
  CHECK(c.cache_hit);
  CHECK_EQ(b.stats().recomputes, 0u);
  std::remove(path.c_str());
}

}  // namespace

int main() {
  TestFormatRoundtrip();
  TestFormatRejectsDamage();
  TestFormatSurvivesEveryByteFlip();
  TestFormatRejectsBadIds();
  TestLogAppendReplay();
  TestLogTornTail();
  TestLogCorruptMiddle();
  TestLogHandWrittenFrames();
  TestLogBadHeader();
  TestStoreRoundtripAndReopen();
  TestStoreFailedFlushFailsPut();
  TestStoreDamagedPayloadGoesCold();
  TestStoreFlippedPayloadByte();
  TestStoreCompaction();
  TestStoreDiskBudget();
  TestServerRestartWarm();
  std::printf("store_test OK\n");
  return 0;
}
