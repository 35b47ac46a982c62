// Serving-layer tests: concurrent multi-client submission, ticket
// acknowledgment ordering, WAL group-commit replay after simulated crashes
// (both sides of the commit marker), snapshot compaction equivalence, and
// concurrent readers through all three ReadModes while submitters run.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "graph/dynamic_graph.hpp"
#include "graph/generators.hpp"
#include "kcore/peel.hpp"
#include "service/kcore_service.hpp"
#include "service/wal.hpp"

namespace cpkcore {
namespace {

using service::KCoreService;
using service::ServiceConfig;
using service::Ticket;
using service::WalDurability;
using service::WriteAheadLog;

/// Unique temp path per test *and* per process (two build trees' suites
/// running concurrently must not clobber each other); removed by the guard.
class TempPath {
 public:
  explicit TempPath(const std::string& name)
      : path_("/tmp/cpkc_service_" + std::to_string(::getpid()) + "_" +
              name) {
    std::filesystem::remove(path_);
  }
  ~TempPath() { std::filesystem::remove(path_); }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::set<std::uint64_t> edge_keys(const KCoreService& svc) {
  std::set<std::uint64_t> keys;
  const PLDS& plds = svc.cplds().plds();
  for (vertex_t v = 0; v < svc.num_vertices(); ++v) {
    for (vertex_t w : plds.neighbors(v)) {
      if (w > v) keys.insert(Edge{v, w}.key());
    }
  }
  return keys;
}

TEST(Service, SingleClientInsertAndRead) {
  ServiceConfig cfg;
  cfg.num_vertices = 300;
  KCoreService svc(cfg);
  auto edges = gen::barabasi_albert(300, 4, 11);
  std::vector<Ticket> tickets;
  tickets.reserve(edges.size());
  for (const Edge& e : edges) tickets.push_back(svc.submit_insert(e.u, e.v));
  for (const Ticket& t : tickets) EXPECT_TRUE(svc.wait(t));

  CPLDS reference(300, LDSParams::create(300));
  reference.insert_batch(edges);
  EXPECT_EQ(svc.num_edges(), reference.num_edges());
  for (vertex_t v = 0; v < 300; ++v) {
    for (vertex_t w : reference.plds().neighbors(v)) {
      EXPECT_TRUE(svc.cplds().plds().has_edge(v, w));
    }
  }
  svc.shutdown();
}

TEST(Service, ConcurrentSubmissionAppliesUnion) {
  constexpr vertex_t kN = 1000;
  constexpr std::size_t kClients = 4;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  KCoreService svc(cfg);

  // Disjoint vertex ranges per client so the expected union is exact even
  // though submission order across clients is unconstrained.
  std::vector<std::vector<Edge>> per_client(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    const auto base = static_cast<vertex_t>(c * (kN / kClients));
    for (vertex_t i = 0; i + 1 < kN / kClients; ++i) {
      per_client[c].push_back({base + i, base + i + 1});
      if (i + 2 < kN / kClients) {
        per_client[c].push_back({base + i, base + i + 2});
      }
    }
  }
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      std::vector<Ticket> tickets;
      tickets.reserve(per_client[c].size());
      for (const Edge& e : per_client[c]) {
        tickets.push_back(svc.submit_insert(e.u, e.v));
      }
      for (const Ticket& t : tickets) EXPECT_TRUE(svc.wait(t));
    });
  }
  for (auto& t : clients) t.join();

  std::size_t expected = 0;
  for (const auto& edges : per_client) {
    expected += edges.size();
    for (const Edge& e : edges) {
      EXPECT_TRUE(svc.cplds().plds().has_edge(e.u, e.v));
    }
  }
  EXPECT_EQ(svc.num_edges(), expected);
  std::string why;
  EXPECT_TRUE(svc.cplds().plds().validate(&why)) << why;
  svc.shutdown();
}

TEST(Service, TicketAcknowledgmentOrderIsMonotonePerShard) {
  ServiceConfig cfg;
  cfg.num_vertices = 500;
  cfg.num_shards = 1;  // one shard -> all tickets totally ordered
  cfg.min_ops_per_cycle = 4;
  cfg.max_ops_per_cycle = 16;  // force many small drain cycles
  KCoreService svc(cfg);

  auto edges = gen::erdos_renyi(500, 2000, 3);
  std::vector<Ticket> tickets;
  tickets.reserve(edges.size());
  for (const Edge& e : edges) {
    tickets.push_back(svc.submit_insert(e.u, e.v));
    ASSERT_EQ(tickets.back().shard, 0u);
    ASSERT_EQ(tickets.back().seq, tickets.size());
  }
  // Acks are monotone: whenever a ticket is applied, so is every earlier
  // one. Probe at several points while batches are still in flight.
  for (std::size_t probe : {std::size_t{10}, edges.size() / 2,
                            edges.size() - 1}) {
    ASSERT_TRUE(svc.wait(tickets[probe]));
    for (std::size_t j = 0; j <= probe; ++j) {
      EXPECT_TRUE(svc.is_applied(tickets[j])) << j;
    }
  }
  svc.shutdown();
}

TEST(Service, MixedInsertDeleteMatchesSequentialMirror) {
  constexpr vertex_t kN = 400;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.min_ops_per_cycle = 8;
  cfg.max_ops_per_cycle = 64;
  KCoreService svc(cfg);

  // Single client: per-edge order equals submission order, so a sequential
  // mirror predicts the final state exactly.
  Xoshiro256 rng(99);
  DynamicGraph mirror(kN);
  std::vector<Edge> present;
  Ticket last{};
  for (int i = 0; i < 4000; ++i) {
    if (present.empty() || rng.next_below(3) != 0) {
      const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                   static_cast<vertex_t>(rng.next_below(kN))};
      last = svc.submit({e, UpdateKind::kInsert});
      if (mirror.insert_edge(e)) present.push_back(e.canonical());
    } else {
      const std::size_t j = rng.next_below(present.size());
      last = svc.submit({present[j], UpdateKind::kDelete});
      mirror.delete_edge(present[j]);
      present[j] = present.back();
      present.pop_back();
    }
  }
  svc.drain();
  EXPECT_TRUE(svc.is_applied(last));
  EXPECT_EQ(svc.num_edges(), mirror.num_edges());
  for (vertex_t v = 0; v < kN; ++v) {
    for (vertex_t w : mirror.neighbors(v)) {
      EXPECT_TRUE(svc.cplds().plds().has_edge(v, w)) << v << "," << w;
    }
  }
  std::string why;
  EXPECT_TRUE(svc.cplds().plds().validate(&why)) << why;
  svc.shutdown();
}

TEST(Service, WalReplayAfterCrashRestoresAckedOps) {
  TempPath wal("crash.wal");
  constexpr vertex_t kN = 400;
  auto edges = gen::social(kN, 4, 3, 30, 0.9, 21);
  std::set<std::uint64_t> before;
  {
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.wal_path = wal.str();
    KCoreService svc(cfg);
    std::vector<Ticket> tickets;
    for (const Edge& e : edges) tickets.push_back(svc.submit_insert(e.u, e.v));
    for (const Ticket& t : tickets) ASSERT_TRUE(svc.wait(t));
    before = edge_keys(svc);
    // Crash after every op was acked (kill *after* group commit): the WAL
    // must reproduce the acked edge set exactly.
    svc.simulate_crash();
  }
  {
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.wal_path = wal.str();
    KCoreService svc(cfg);
    EXPECT_GT(svc.stats().replayed_batches, 0u);
    EXPECT_EQ(edge_keys(svc), before);
    std::string why;
    EXPECT_TRUE(svc.cplds().plds().validate(&why)) << why;
    svc.shutdown();
  }
}

TEST(Service, CrashDropsPendingUnackedOps) {
  TempPath wal("pending.wal");
  constexpr vertex_t kN = 100;
  Ticket pending_ticket{};
  {
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.wal_path = wal.str();
    KCoreService svc(cfg);
    auto t1 = svc.submit_insert(1, 2);
    ASSERT_TRUE(svc.wait(t1));
    svc.simulate_crash();
    // Submissions after the crash are rejected.
    EXPECT_THROW(svc.submit_insert(2, 3), std::runtime_error);
    // A ticket the crash left behind reports failure instead of hanging.
    pending_ticket = Ticket{0, ~std::uint64_t{0}};
    EXPECT_FALSE(svc.wait(pending_ticket));
  }
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.wal_path = wal.str();
  KCoreService svc(cfg);
  EXPECT_EQ(svc.num_edges(), 1u);
  EXPECT_TRUE(svc.cplds().plds().has_edge(1, 2));
  svc.shutdown();
}

/// Writes `bytes` to `path` verbatim.
void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Runs `fn` and returns the std::runtime_error message it throws ("" if
/// it throws nothing).
template <typename Fn>
std::string runtime_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Service, WalRejectsMismatchedVertexCount) {
  // A well-formed v4 header for 100 vertices, opened as a 200-vertex log:
  // the vertex-count check (not the magic check) must reject it.
  TempPath wal("mismatch.wal");
  std::vector<unsigned char> header;
  service::append_wal_header_v4(header, 100, 0);
  write_file(wal.str(), header);
  WriteAheadLog log;
  EXPECT_NE(runtime_error_of([&] { log.open(wal.str(), 200, nullptr); })
                .find("vertex count mismatch"),
            std::string::npos);
  EXPECT_NE(runtime_error_of([&] {
              (void)service::scan_wal(wal.str(), 200, nullptr);
            }).find("vertex count mismatch"),
            std::string::npos);
  // The matching count opens the same file cleanly.
  EXPECT_EQ(log.open(wal.str(), 100, nullptr).replayed, 0u);
}

TEST(Service, WalRejectsV3TextMagicAndLeavesFileUntouched) {
  // A log in the old line-oriented v3 format is not a v4 log: open and
  // scan must refuse it with the bad-header error, and neither may
  // rewrite or truncate the file.
  TempPath wal("v3.wal");
  const std::string v3 =
      "cpkcore-wal-v3\n100 0\nB I 2 1\n1 2\n2 3\nC 2 1 0\n";
  write_file(wal.str(), {v3.begin(), v3.end()});
  const std::vector<unsigned char> before = read_file(wal.str());
  WriteAheadLog log;
  EXPECT_NE(runtime_error_of([&] { log.open(wal.str(), 100, nullptr); })
                .find("bad WAL header"),
            std::string::npos);
  EXPECT_NE(runtime_error_of([&] {
              (void)service::scan_wal(wal.str(), 100, nullptr);
            }).find("bad WAL header"),
            std::string::npos);
  EXPECT_EQ(read_file(wal.str()), before);
}

TEST(Service, WalCloseAppendsUnflushedTailAfterFlushedRecords) {
  // close() pushes records appended since the last flush. On a freshly
  // created log the flusher wrote the flushed records at explicit offsets,
  // so the tail must land after them, not over them.
  TempPath wal("close_tail.wal");
  {
    WriteAheadLog log;
    log.open(wal.str(), 50, nullptr);
    log.append(1, UpdateBatch{UpdateKind::kInsert, {{1, 2}}});
    log.flush();
    log.append(2, UpdateBatch{UpdateKind::kInsert, {{2, 3}}});
    log.close();
  }
  std::vector<std::uint64_t> lsns;
  WriteAheadLog reopened;
  reopened.open(wal.str(), 50, [&](std::uint64_t lsn, const UpdateBatch&) {
    lsns.push_back(lsn);
  });
  EXPECT_EQ(lsns, (std::vector<std::uint64_t>{1, 2}));
}

TEST(Service, WalTreatsEmptyFileAsFresh) {
  // A zero-byte file is outside input (nothing this log writes leaves
  // one); restart must not be bricked by it.
  TempPath wal("empty.wal");
  { std::ofstream out(wal.str()); }  // create empty
  WriteAheadLog log;
  std::size_t replayed = ~std::size_t{0};
  ASSERT_NO_THROW(replayed = log.open(wal.str(), 50, nullptr).replayed);
  EXPECT_EQ(replayed, 0u);
  log.append(1, UpdateBatch{UpdateKind::kInsert, {{1, 2}}});
  log.flush();
  log.close();
  std::size_t count = 0;
  WriteAheadLog reopened;
  EXPECT_EQ(reopened
                .open(wal.str(), 50,
                      [&](std::uint64_t, const UpdateBatch&) { ++count; })
                .replayed,
            1u);
  EXPECT_EQ(count, 1u);
}

TEST(Service, WalLifeCycleCompactAndCloseAllDurabilities) {
  // One log's whole life on its one fd and flusher thread: create, commit,
  // compact with a commit still in flight, append past the cut, close with
  // an unflushed tail, reopen. The durable callback parks the flusher on
  // LSN 2 until a helper thread opens the gate, so LSN 3 is queued behind
  // it when compact() starts: compact() must drain it before the rewrite
  // and the fd swap.
  const auto edge = [](vertex_t v) {
    return UpdateBatch{UpdateKind::kInsert, {{v, v + 1}}};
  };
  for (WalDurability level :
       {WalDurability::kOsCache, WalDurability::kFdatasync,
        WalDurability::kFsync}) {
    TempPath wal("life.wal");
    service::WalOptions options;
    options.durability = level;
    {
      WriteAheadLog log;
      EXPECT_EQ(log.open(wal.str(), 50, nullptr, options).replayed, 0u);
      std::atomic<bool> parked{false};
      std::atomic<bool> gate{false};
      std::atomic<std::uint64_t> notified{0};
      log.set_durable_callback([&](std::uint64_t lsn, const std::string*) {
        if (lsn == 2) parked.store(true);
        while (lsn == 2 && !gate.load()) std::this_thread::yield();
        notified.store(lsn);
      });
      log.append(1, edge(1));
      log.flush();
      const std::uint64_t flushes = log.flush_stats().flushes;
      log.append(2, edge(2));
      log.commit_async();
      while (!parked.load()) std::this_thread::yield();
      log.append(3, edge(3));
      log.commit_async();
      std::thread opener([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        gate.store(true);
      });
      log.compact(1);
      opener.join();
      EXPECT_EQ(log.base_lsn(), 1u);
      EXPECT_EQ(log.durable_lsn(), 3u);
      EXPECT_EQ(notified.load(), 3u);
      EXPECT_GT(log.flush_stats().flushes, flushes);
      log.append(4, edge(4));
      log.flush();
      EXPECT_EQ(notified.load(), 4u);
      log.append(5, edge(5));
      log.close();
    }
    EXPECT_FALSE(std::filesystem::exists(wal.str() + ".rewrite"));
    std::vector<std::uint64_t> lsns;
    WriteAheadLog reopened;
    const auto info = reopened.open(
        wal.str(), 50,
        [&](std::uint64_t lsn, const UpdateBatch&) { lsns.push_back(lsn); },
        options);
    EXPECT_EQ(lsns, (std::vector<std::uint64_t>{2, 3, 4, 5}))
        << "durability level " << static_cast<int>(level);
    EXPECT_EQ(info.last_lsn, 5u);
    EXPECT_EQ(reopened.base_lsn(), 1u);
  }
}

TEST(Service, WalFailedCompactionPoisonsTheLog) {
  // A compaction that fails part-way may leave the fd on a file no longer
  // under the log's name, so the log must refuse later commits rather than
  // ack them. Here the rewrite cannot be created (a directory is in its way).
  TempPath wal("poison.wal");
  TempPath blocker("poison.wal.rewrite");
  {
    WriteAheadLog log;
    log.open(wal.str(), 50, nullptr);
    log.append(1, UpdateBatch{UpdateKind::kInsert, {{1, 2}}});
    log.flush();
    std::filesystem::create_directory(blocker.str());
    EXPECT_THROW(log.compact(1), std::runtime_error);
    log.append(2, UpdateBatch{UpdateKind::kInsert, {{2, 3}}});
    EXPECT_THROW(log.flush(), std::runtime_error);
    EXPECT_THROW(log.wait_durable(1), std::runtime_error);
    log.close();
  }
  WriteAheadLog reopened;
  EXPECT_EQ(reopened.open(wal.str(), 50, nullptr).last_lsn, 1u);
  EXPECT_EQ(reopened.base_lsn(), 0u);
}

/// Writes a fresh two-record binary log; returns the file size after the
/// first record's group commit — a frame boundary, so corruption injected
/// past it hits exactly the second frame.
std::uintmax_t write_two_record_binary_log(const std::string& path) {
  WriteAheadLog log;
  log.open(path, 100, nullptr);
  log.append(1, UpdateBatch{UpdateKind::kInsert, {{1, 2}, {2, 3}}});
  log.flush();
  const std::uintmax_t boundary = std::filesystem::file_size(path);
  log.append(2, UpdateBatch{UpdateKind::kInsert, {{3, 4}}});
  log.flush();
  log.close();
  return boundary;
}

/// The truncate-and-resume contract, asserted against a damaged log: both
/// readers agree the committed prefix is record 1 only, the open truncates
/// the damage away, LSN 2 is reusable, and the log keeps working.
void expect_truncates_to_first_record(const std::string& path) {
  const auto scanned = service::scan_wal(path, 100, nullptr);
  EXPECT_EQ(scanned.records, 1u);
  EXPECT_EQ(scanned.last_lsn, 1u);
  std::vector<std::uint64_t> lsns;
  WriteAheadLog log;
  const auto info =
      log.open(path, 100, [&](std::uint64_t lsn, const UpdateBatch&) {
        lsns.push_back(lsn);
      });
  EXPECT_EQ(info.replayed, 1u);
  EXPECT_EQ(info.last_lsn, 1u);
  EXPECT_EQ(lsns, (std::vector<std::uint64_t>{1}));
  log.append(2, UpdateBatch{UpdateKind::kDelete, {{1, 2}}});
  log.flush();
  log.close();
  WriteAheadLog reopened;
  EXPECT_EQ(reopened.open(path, 100, nullptr).replayed, 2u);
}

TEST(Service, WalBinaryTornMidFrameTail) {
  // Crash between append and group commit: the second frame's length
  // prefix and a few payload bytes made it to disk, the rest did not.
  TempPath wal("v4_torn.wal");
  const std::uintmax_t boundary = write_two_record_binary_log(wal.str());
  ASSERT_GT(std::filesystem::file_size(wal.str()), boundary + 7);
  std::filesystem::resize_file(wal.str(), boundary + 7);
  expect_truncates_to_first_record(wal.str());
}

TEST(Service, WalBinaryTruncatedLengthPrefix) {
  // Harsher tear: only 2 of the second frame's 4 length-prefix bytes
  // survive — the reader cannot even tell how long the record claims to be.
  TempPath wal("v4_prefix.wal");
  const std::uintmax_t boundary = write_two_record_binary_log(wal.str());
  std::filesystem::resize_file(wal.str(), boundary + 2);
  expect_truncates_to_first_record(wal.str());
}

TEST(Service, WalBinaryBitFlipTruncatesCorruptTail) {
  // Bit rot: the second frame is structurally intact (full length, trailer
  // present, vertex ids in range) but one payload bit flipped, so the
  // stored CRC no longer matches the bytes.
  TempPath wal("v4_flip.wal");
  const std::uintmax_t boundary = write_two_record_binary_log(wal.str());
  {
    std::fstream f(wal.str(),
                   std::ios::in | std::ios::out | std::ios::binary);
    // Offset 17 into a frame is its first edge byte (see wal_codec.hpp).
    f.seekg(static_cast<std::streamoff>(boundary) + 17);
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(boundary) + 17);
    f.put(static_cast<char>(byte ^ 0x20));
  }
  expect_truncates_to_first_record(wal.str());
}

TEST(Service, TinyBudgetManyShardsDrainsFairly) {
  // Budget smaller than the shard count: the rotating drain start must
  // still reach every shard, so every ticket acks.
  ServiceConfig cfg;
  cfg.num_vertices = 200;
  cfg.num_shards = 8;
  cfg.min_ops_per_cycle = 2;
  cfg.max_ops_per_cycle = 2;
  KCoreService svc(cfg);
  std::vector<Ticket> tickets;
  for (vertex_t i = 0; i + 1 < 120; ++i) {
    tickets.push_back(svc.submit_insert(i, i + 1));
  }
  for (const Ticket& t : tickets) EXPECT_TRUE(svc.wait(t));
  EXPECT_EQ(svc.num_edges(), 119u);
  svc.shutdown();
}

TEST(Service, SnapshotCompactionEquivalence) {
  TempPath wal("compact.wal");
  TempPath snap("compact.snap");
  constexpr vertex_t kN = 300;
  auto phase_a = gen::barabasi_albert(kN, 5, 31);
  auto phase_b = gen::erdos_renyi(kN, 800, 32);
  std::set<std::uint64_t> before;
  {
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.wal_path = wal.str();
    cfg.snapshot_path = snap.str();
    KCoreService svc(cfg);
    for (const Edge& e : phase_a) svc.submit_insert(e.u, e.v);
    svc.drain();
    // A stale temp file from a crashed earlier checkpoint must not matter.
    { std::ofstream garbage(snap.str() + ".tmp"); garbage << "torn"; }
    svc.checkpoint();  // snapshot phase A (atomic rename), truncate the WAL
    EXPECT_FALSE(std::filesystem::exists(snap.str() + ".tmp"));
    EXPECT_FALSE(std::filesystem::exists(wal.str() + ".rewrite"));
    for (const Edge& e : phase_b) svc.submit_insert(e.u, e.v);
    // Deletions past the cut must replay over the snapshot too.
    for (std::size_t i = 0; i < phase_a.size(); i += 3) {
      svc.submit_delete(phase_a[i].u, phase_a[i].v);
    }
    svc.drain();
    before = edge_keys(svc);
    svc.simulate_crash();
  }
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.wal_path = wal.str();
  cfg.snapshot_path = snap.str();
  KCoreService svc(cfg);
  // Warm restart = snapshot (phase A) + WAL suffix (phase B and the
  // deletions only).
  EXPECT_EQ(edge_keys(svc), before);

  // Coreness estimates after restart stay within the paper's bound.
  DynamicGraph mirror(kN);
  const PLDS& plds = svc.cplds().plds();
  for (vertex_t v = 0; v < kN; ++v) {
    for (vertex_t w : plds.neighbors(v)) {
      if (w > v) mirror.insert_edge({v, w});
    }
  }
  const auto exact = exact_coreness(mirror);
  const double bound = (2.0 + 3.0 / 9.0) * 1.44;
  for (vertex_t v = 0; v < kN; ++v) {
    const double est = svc.read_coreness(v);
    const double truth = std::max<double>(1.0, exact[v]);
    EXPECT_LE(std::max(est / truth, truth / est), bound) << v;
  }
  svc.shutdown();
}

TEST(Service, ConcurrentSubmittersAndReadersAllModes) {
  // The acceptance demo: >= 4 submitter threads and >= 4 reader threads,
  // every ReadMode exercised, TSan-clean (this suite runs in the TSan CI
  // leg). Correctness: structure validates and reads stay in range.
  constexpr vertex_t kN = 2000;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.min_ops_per_cycle = 32;
  cfg.max_ops_per_cycle = 4096;
  KCoreService svc(cfg);
  // Preload so readers see a nontrivial structure from the start.
  for (const Edge& e : gen::barabasi_albert(kN, 3, 41)) {
    svc.submit_insert(e.u, e.v);
  }
  svc.drain();

  // One run per read mode, all three against the same live service: 4
  // submitters insert random edges and delete a quarter of them back while
  // 4 readers issue random-vertex reads until the submissions drain.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerThread = 3000;
  for (ReadMode mode :
       {ReadMode::kCplds, ReadMode::kNonSync, ReadMode::kSyncReads}) {
    std::atomic<bool> stop_readers{false};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> submitted{0};
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kThreads; ++t) {
      readers.emplace_back([&, t] {
        Xoshiro256 rng(5 * 0x9E3779B97F4A7C15ULL + t + 1);
        std::uint64_t issued = 0;
        while (!stop_readers.load(std::memory_order_relaxed)) {
          const auto v = static_cast<vertex_t>(rng.next_below(kN));
          (void)svc.read_coreness(v, mode);
          ++issued;
        }
        reads.fetch_add(issued);
      });
    }
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        Xoshiro256 rng(5 * 0xD1B54A32D192ED03ULL + t + 1);
        std::vector<Edge> inserted;
        for (std::size_t i = 0; i < kOpsPerThread; ++i) {
          if (!inserted.empty() && rng.next_double() < 0.25) {
            const std::size_t j = rng.next_below(inserted.size());
            svc.submit({inserted[j], UpdateKind::kDelete});
            inserted[j] = inserted.back();
            inserted.pop_back();
          } else {
            const Edge e{static_cast<vertex_t>(rng.next_below(kN)),
                         static_cast<vertex_t>(rng.next_below(kN))};
            svc.submit({e, UpdateKind::kInsert});
            if (!e.is_self_loop()) inserted.push_back(e.canonical());
          }
          submitted.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread& th : submitters) th.join();
    svc.drain();
    stop_readers.store(true, std::memory_order_relaxed);
    for (std::thread& th : readers) th.join();
    EXPECT_EQ(submitted.load(), kThreads * kOpsPerThread);
    EXPECT_GT(reads.load(), 0u);
  }
  const auto stats = svc.stats();
  EXPECT_EQ(stats.acked_ops, stats.submitted_ops);
  EXPECT_GT(stats.cycles, 0u);
  EXPECT_GT(stats.ack_latency.count(), 0u);
  svc.shutdown();
  std::string why;
  EXPECT_TRUE(svc.cplds().plds().validate(&why)) << why;
}

TEST(Service, AdaptiveBatchSizerTracksTarget) {
  service::AdaptiveBatchSizer sizer(16, 8192, /*target_apply_ns=*/1000000);
  // 1 us per op -> ideal budget 1000; growth capped at 2x per observation.
  std::size_t prev = sizer.budget();
  for (int i = 0; i < 10; ++i) {
    sizer.observe(prev, prev * 1000);
    EXPECT_LE(sizer.budget(), std::max(prev * 2, std::size_t{16}));
    prev = sizer.budget();
  }
  EXPECT_NEAR(static_cast<double>(sizer.budget()), 1000.0, 200.0);
  // Ops suddenly 100x slower -> budget shrinks toward 10.
  for (int i = 0; i < 20; ++i) sizer.observe(sizer.budget(), sizer.budget() * 100000);
  EXPECT_LE(sizer.budget(), 64u);
  EXPECT_GE(sizer.budget(), 16u);  // floor respected
}

TEST(Service, AsyncCrashReplayRestoresAckedOpsAllDurabilities) {
  // The async engine must not weaken the crash contract at any durability
  // level: every acked op is in the committed prefix the reopen replays.
  constexpr vertex_t kN = 300;
  const auto edges = gen::barabasi_albert(kN, 4, 17);
  for (WalDurability level :
       {WalDurability::kOsCache, WalDurability::kFdatasync,
        WalDurability::kFsync}) {
    TempPath wal("async_crash.wal");
    std::set<std::uint64_t> before;
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.wal_path = wal.str();
    cfg.wal_durability = level;
    {
      KCoreService svc(cfg);
      std::vector<Ticket> tickets;
      tickets.reserve(edges.size());
      for (const Edge& e : edges) {
        tickets.push_back(svc.submit_insert(e.u, e.v));
      }
      for (const Ticket& t : tickets) ASSERT_TRUE(svc.wait(t));
      before = edge_keys(svc);
      svc.simulate_crash();
    }
    KCoreService svc(cfg);
    EXPECT_GT(svc.stats().replayed_batches, 0u);
    EXPECT_EQ(edge_keys(svc), before)
        << "durability level " << static_cast<int>(level);
    std::string why;
    EXPECT_TRUE(svc.cplds().plds().validate(&why)) << why;
    svc.shutdown();
  }
}

TEST(Service, AckNeverPrecedesDurabilityAtSyncLevels) {
  // The pipelined commit defers acks to the durable watermark: at
  // fdatasync/fsync, the moment wait() returns the acked LSN must already
  // be covered by the WAL's durable LSN — an ack may never outrun its
  // durability point.
  constexpr vertex_t kN = 200;
  for (WalDurability level :
       {WalDurability::kFdatasync, WalDurability::kFsync}) {
    TempPath wal("ack_durable.wal");
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.wal_path = wal.str();
    cfg.wal_durability = level;
    KCoreService svc(cfg);
    const auto edges = gen::erdos_renyi(kN, 600, 9);
    std::vector<Ticket> tickets;
    tickets.reserve(edges.size());
    for (const Edge& e : edges) {
      tickets.push_back(svc.submit_insert(e.u, e.v));
    }
    for (const Ticket& t : tickets) {
      std::uint64_t lsn = 0;
      ASSERT_TRUE(svc.wait(t, &lsn));
      EXPECT_GE(svc.durable_lsn(), lsn);
    }
    svc.shutdown();
  }
}

TEST(Service, AsyncCompactPreservesUnshippedSuffixAllDurabilities) {
  // checkpoint() compacts the WAL under the running flusher; records
  // committed after the cut must survive in the compacted log and replay
  // on reopen, at every durability level.
  constexpr vertex_t kN = 250;
  const auto phase_a = gen::barabasi_albert(kN, 4, 51);
  const auto phase_b = gen::erdos_renyi(kN, 500, 52);
  for (WalDurability level :
       {WalDurability::kOsCache, WalDurability::kFdatasync,
        WalDurability::kFsync}) {
    TempPath wal("async_compact.wal");
    TempPath snap("async_compact.snap");
    std::set<std::uint64_t> before;
    ServiceConfig cfg;
    cfg.num_vertices = kN;
    cfg.wal_path = wal.str();
    cfg.snapshot_path = snap.str();
    cfg.wal_durability = level;
    {
      KCoreService svc(cfg);
      for (const Edge& e : phase_a) svc.submit_insert(e.u, e.v);
      svc.drain();
      svc.checkpoint();
      for (const Edge& e : phase_b) svc.submit_insert(e.u, e.v);
      svc.drain();
      before = edge_keys(svc);
      svc.shutdown();
    }
    KCoreService svc(cfg);
    // Warm restart = snapshot (phase A) + compacted-WAL suffix (phase B).
    EXPECT_GT(svc.stats().replayed_batches, 0u);
    EXPECT_EQ(edge_keys(svc), before)
        << "durability level " << static_cast<int>(level);
    std::string why;
    EXPECT_TRUE(svc.cplds().plds().validate(&why)) << why;
    svc.shutdown();
  }
}

TEST(Service, AsyncEngineStatsExposeFlushPipeline) {
  TempPath wal("flush_stats.wal");
  constexpr vertex_t kN = 300;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.wal_path = wal.str();
  cfg.wal_durability = WalDurability::kFdatasync;
  KCoreService svc(cfg);
  for (const Edge& e : gen::barabasi_albert(kN, 4, 23)) {
    svc.submit_insert(e.u, e.v);
  }
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.wal_engine, "flusher");
  EXPECT_GT(stats.wal_flushes, 0u);
  EXPECT_GT(stats.wal_flush_bytes, 0u);
  EXPECT_GT(stats.durable_lag.count(), 0u);
  EXPECT_GT(stats.applied_latency.count(), 0u);
  // Quiescent after drain: the watermark covers everything committed, and
  // nothing rides the flush pipeline.
  EXPECT_GE(stats.durable_lsn, stats.commit_lsn);
  EXPECT_EQ(stats.wal_flush_depth, 0u);
  EXPECT_EQ(stats.wal_inflight_bytes, 0u);
  svc.shutdown();
}

TEST(Service, WalScanReportsCommittedBytes) {
  // committed_bytes is walcat --verify's foundation: it equals the file
  // size on a clean log and stays put when garbage is appended.
  TempPath wal("cbytes.wal");
  constexpr vertex_t kN = 100;
  ServiceConfig cfg;
  cfg.num_vertices = kN;
  cfg.wal_path = wal.str();
  {
    KCoreService svc(cfg);
    for (vertex_t v = 0; v + 1 < 50; ++v) svc.submit_insert(v, v + 1);
    svc.drain();
    svc.shutdown();
  }
  const auto clean = service::scan_wal_frames(
      wal.str(), kN, [](const service::WalFramePtr&) {});
  EXPECT_GT(clean.records, 0u);
  EXPECT_EQ(clean.committed_bytes, std::filesystem::file_size(wal.str()));
  {
    std::ofstream out(wal.str(),
                      std::ios::app | std::ios::binary);
    out << "garbage tail";
  }
  const auto torn = service::scan_wal_frames(
      wal.str(), kN, [](const service::WalFramePtr&) {});
  EXPECT_EQ(torn.records, clean.records);
  EXPECT_EQ(torn.committed_bytes, clean.committed_bytes);
  EXPECT_LT(torn.committed_bytes, std::filesystem::file_size(wal.str()));
}

TEST(Service, AdaptiveBatchSizerBacksOffOnAckLag) {
  service::AdaptiveBatchSizer sizer(16, 8192, /*target_apply_ns=*/1000000);
  // Converge with a healthy pipeline: 1 us per op, no ack lag -> ~1000.
  for (int i = 0; i < 20; ++i) sizer.observe(sizer.budget(), sizer.budget() * 1000);
  const std::size_t base = sizer.budget();
  EXPECT_NEAR(static_cast<double>(base), 1000.0, 200.0);
  // Durability pipeline falls behind: acks trail applies by 0.9 targets.
  // The lag eats the latency budget, so the op budget backs off hard even
  // though per-op apply cost is unchanged.
  for (int i = 0; i < 30; ++i) {
    sizer.observe(sizer.budget(), sizer.budget() * 1000, 900000);
  }
  EXPECT_LT(sizer.budget(), base / 4);
  EXPECT_GE(sizer.budget(), 16u);  // floor respected
  // Pipeline catches up: zero-lag observations decay the EWMA and the
  // budget recovers (2x growth per observation).
  for (int i = 0; i < 30; ++i) sizer.observe(sizer.budget(), sizer.budget() * 1000);
  EXPECT_NEAR(static_cast<double>(sizer.budget()),
              static_cast<double>(base), static_cast<double>(base) / 2.0);
}

TEST(Service, CoalescerSplitsDedupsAndCanonicalizes) {
  std::vector<Update> ops = {
      {{5, 1}, UpdateKind::kInsert}, {{1, 5}, UpdateKind::kInsert},
      {{2, 2}, UpdateKind::kInsert},  // self-loop: dropped
      {{3, 4}, UpdateKind::kInsert}, {{1, 5}, UpdateKind::kDelete},
      {{4, 3}, UpdateKind::kDelete}, {{6, 7}, UpdateKind::kInsert},
  };
  const auto batches = service::coalesce_updates(std::move(ops));
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].kind, UpdateKind::kInsert);
  EXPECT_EQ(batches[0].edges, (std::vector<Edge>{{1, 5}, {3, 4}}));
  EXPECT_EQ(batches[1].kind, UpdateKind::kDelete);
  EXPECT_EQ(batches[1].edges, (std::vector<Edge>{{1, 5}, {3, 4}}));
  EXPECT_EQ(batches[2].kind, UpdateKind::kInsert);
  EXPECT_EQ(batches[2].edges, (std::vector<Edge>{{6, 7}}));
}

}  // namespace
}  // namespace cpkcore
