// The store/ subsystem: versioned solution serialization (bit-exact
// roundtrip, size formula, checksum-first rejection of damage, refusal
// of out-of-range ids), the
// append-only log (replay, torn-tail truncation, mid-log corruption,
// header mismatch), the directory's byte accounting, SolutionStore
// end-to-end (put/fetch/erase/reopen, failed appends failing the put,
// damaged records going cold, compaction, disk-budget eviction), and the
// warm-restart test: a server restarted over the same log answers a
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
#include "store/directory.h"
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

/// `s` encoded as a record of another format version, its checksum
/// resealed so that the version check itself is what refuses it. Version
/// 1 is laid out as version 1 was: an input fingerprint u64 right after
/// the version field.
std::string EncodeAsVersion(const dpc::DpcSolution& s, uint32_t version) {
  std::string buf;
  dpc::store::EncodeSolution(s, &buf);
  buf.resize(buf.size() - sizeof(uint64_t));  // drop the checksum
  std::memcpy(&buf[4], &version, sizeof(version));  // after the 4-byte magic
  if (version == 1) {
    const uint64_t fingerprint = 0xfeedbeefcafe0000ull;
    buf.insert(8, reinterpret_cast<const char*>(&fingerprint),
               sizeof(fingerprint));
  }
  const uint64_t checksum = dpc::Fnv1aBytes(buf.data(), buf.size());
  buf.append(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  return buf;
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

  // Any flipped byte fails the trailing checksum — corruption is caught
  // before a single field is trusted.
  for (const size_t at : {size_t{0}, size_t{5}, buf.size() / 2}) {
    std::string bad = buf;
    bad[at] = static_cast<char>(bad[at] ^ 0x40);
    CHECK(!dpc::store::DecodeSolution(bad).ok());
  }
  // Truncation at every boundary class fails cleanly.
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{40}, buf.size() - 1}) {
    CHECK(!dpc::store::DecodeSolution(buf.data(), keep).ok());
  }
  // A future format version, and version 1 (which also carried the
  // input's fingerprint), are refused by the version check.
  for (const uint32_t version : {9u, 1u}) {
    const auto refused =
        dpc::store::DecodeSolution(EncodeAsVersion(MakeSolution(16), version));
    CHECK(!refused.ok());
    CHECK(refused.status().message().find("version") != std::string::npos);
  }
}

/// Records whose checksum holds but whose ids would send labeling out of
/// bounds: each is encoded as-is (the encoder trusts its input) and must
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
    auto a1 = log.value()->Append(dpc::store::kRecordPut, "k1", p1);
    CHECK(a1.ok());
    off1 = a1.value();
    auto a2 = log.value()->Append(dpc::store::kRecordPut, "k2", p2);
    CHECK(a2.ok());
    off2 = a2.value();
    CHECK(log.value()->Append(dpc::store::kRecordErase, "k1", "").ok());
    // The size accounting matches the static per-record formula.
    CHECK_EQ(log.value()->size_bytes(),
             dpc::store::SolutionLog::kHeaderBytes +
                 dpc::store::SolutionLog::RecordBytes(2, p1.size()) +
                 dpc::store::SolutionLog::RecordBytes(2, p2.size()) +
                 dpc::store::SolutionLog::RecordBytes(2, 0));
    // Payloads read back through the same handle.
    std::string out;
    CHECK(log.value()->ReadPayload(off1, p1.size(), &out).ok());
    CHECK(out == p1);
  }
  // Reopen: every record replays with the same offsets, types and keys.
  std::vector<dpc::store::LogRecord> replayed;
  auto log = dpc::store::SolutionLog::Open(path, &replayed);
  CHECK(log.ok());
  CHECK_EQ(replayed.size(), 3u);
  CHECK_EQ(replayed[0].type, dpc::store::kRecordPut);
  CHECK(replayed[0].key == "k1");
  CHECK_EQ(replayed[0].payload_offset, off1);
  CHECK_EQ(replayed[1].payload_offset, off2);
  CHECK_EQ(replayed[2].type, dpc::store::kRecordErase);
  std::string out;
  CHECK(log.value()->ReadPayload(off2, p2.size(), &out).ok());
  CHECK(out == p2);
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
    CHECK(log.value()->Append(dpc::store::kRecordPut, "a", "first").ok());
    CHECK(log.value()->Append(dpc::store::kRecordPut, "b", "second").ok());
    CHECK(log.value()->Append(dpc::store::kRecordPut, "c", "third").ok());
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
    CHECK(log.value()->Append(dpc::store::kRecordPut, "d", "fourth").ok());
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
    CHECK(log.value()->Append(dpc::store::kRecordPut, "a", "first").ok());
    second_start = static_cast<long>(log.value()->size_bytes());
    CHECK(log.value()->Append(dpc::store::kRecordPut, "b", "second").ok());
    CHECK(log.value()->Append(dpc::store::kRecordPut, "c", "third").ok());
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

void TestDirectory() {
  dpc::store::Directory dir;
  CHECK(dir.empty());
  dir.Put("a", {100, 50, 0});
  dir.Put("b", {200, 30, 1});
  CHECK_EQ(dir.live_payload_bytes(), 80u);
  // Supersede: newer offset wins, live bytes track the delta.
  dir.Put("a", {300, 70, 2});
  CHECK_EQ(dir.live_payload_bytes(), 100u);
  CHECK_EQ(dir.Find("a")->offset, 300u);
  // Oldest = smallest put sequence, which is now "b".
  CHECK(dir.OldestKey() == "b");
  CHECK(dir.Erase("b"));
  CHECK(!dir.Erase("b"));
  CHECK_EQ(dir.live_payload_bytes(), 70u);
  CHECK_EQ(dir.size(), 1u);
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

    CHECK(store.value()->Erase("k2").ok());
    CHECK(store.value()->Fetch("k2") == nullptr);
  }
  // Reopen: the directory rebuilds from replay; the erased key stays
  // gone (its tombstone replays too) and k1 is still bit-identical.
  auto store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  CHECK_EQ(store.value()->stats().live_solutions, 1u);
  CHECK(!store.value()->Contains("k2"));
  const auto fetched = store.value()->Fetch("k1");
  CHECK(fetched != nullptr);
  CheckSolutionsBitIdentical(s1, *fetched);
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
  // Splice in a record whose LOG framing is valid but whose payload is
  // another solution-format version: a future one is what a downgrade
  // after an upgrade would leave behind, version 1 what an upgrade finds
  // in an old log.
  for (const uint32_t version : {9u, 1u}) {
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
      CHECK(log.value()
                ->Append(dpc::store::kRecordPut, "other",
                         EncodeAsVersion(MakeSolution(8), version))
                .ok());
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
  }
  std::remove(path.c_str());
}

void TestStoreCompaction() {
  const std::string path = TmpPath("compact.log");
  std::remove(path.c_str());
  auto store = dpc::store::SolutionStore::Open(path);
  CHECK(store.ok());
  const dpc::DpcSolution v1 = MakeSolution(64, 1.0);
  const dpc::DpcSolution v2 = MakeSolution(64, 2.0);
  CHECK(store.value()->Put("k1", v1).ok());
  CHECK(store.value()->Put("k1", v2).ok());  // supersedes v1
  CHECK(store.value()->Put("dead", MakeSolution(48)).ok());
  CHECK(store.value()->Erase("dead").ok());
  const uint64_t before = store.value()->stats().log_bytes;

  // Compaction drops the superseded v1, the tombstoned payload, and the
  // tombstone itself: the file shrinks to exactly the live set.
  CHECK(store.value()->Compact().ok());
  const auto stats = store.value()->stats();
  CHECK(stats.log_bytes < before);
  CHECK_EQ(stats.log_bytes,
           dpc::store::SolutionLog::kHeaderBytes +
               dpc::store::SolutionLog::RecordBytes(
                   2, dpc::store::SerializedSolutionBytes(v2)));
  CHECK_EQ(stats.compactions, 1u);
  CHECK_EQ(stats.live_solutions, 1u);
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
  CHECK(stats.budget_evictions >= 5u);
  CHECK(stats.compactions >= 1u);
  // The newest keys survive, the oldest are gone.
  CHECK(store.value()->Contains("k7"));
  CHECK(store.value()->Contains("k5"));
  CHECK(!store.value()->Contains("k0"));
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
  TestFormatRejectsBadIds();
  TestLogAppendReplay();
  TestLogTornTail();
  TestLogCorruptMiddle();
  TestLogBadHeader();
  TestDirectory();
  TestStoreRoundtripAndReopen();
  TestStoreFailedFlushFailsPut();
  TestStoreDamagedPayloadGoesCold();
  TestStoreCompaction();
  TestStoreDiskBudget();
  TestServerRestartWarm();
  std::printf("store_test OK\n");
  return 0;
}
