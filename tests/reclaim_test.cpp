// Tests for the epoch-based memory reclamation behind the wait-free read
// path: epoch advancement under concurrent retire, reader pins blocking
// reclamation (and unblocking it on release, also on a recycled slot, and
// only for objects retired while pinned), a use-after-retire stress test
// that poisons instead of freeing, the retire scan rate limit and
// retire's own scans, the fence-path probe, and a reader/writer stress run
// checking the view-backed reads stay bit-equal to the SyncReads quiescent
// levels.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <vector>

#include "concurrent/reclaim.hpp"
#include "core/cplds.hpp"
#include "core/level_view.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace cpkcore {
namespace {

using concurrent::Reclaimer;

constexpr auto kIntervalNs = static_cast<std::uint64_t>(
    std::chrono::nanoseconds(Reclaimer::kScanInterval).count());

/// A retired payload that counts its own deletions.
struct Tracked {
  static std::atomic<int> live;
  Tracked() { live.fetch_add(1, std::memory_order_relaxed); }
  ~Tracked() { live.fetch_sub(1, std::memory_order_relaxed); }
  static void destroy(void* p) { delete static_cast<Tracked*>(p); }
};
std::atomic<int> Tracked::live{0};

TEST(ReclaimTest, RetireWithoutReadersFreesEverything) {
  Reclaimer r;
  constexpr std::uint64_t kObjects = 200;
  for (std::uint64_t i = 0; i < kObjects; ++i) {
    r.retire(new Tracked, &Tracked::destroy);
  }
  // With no reader pinned, one scan frees everything retired before it.
  r.try_reclaim();
  const Reclaimer::Stats stats = r.stats();
  EXPECT_EQ(stats.retired, kObjects);
  EXPECT_EQ(stats.freed, kObjects);
  EXPECT_EQ(stats.limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(ReclaimTest, EpochAdvancesUnderConcurrentRetire) {
  Reclaimer r;
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&r] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // Readers cycle in and out while other threads retire.
        {
          const Reclaimer::Guard guard = r.read_guard();
        }
        r.retire(new Tracked, &Tracked::destroy);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int i = 0; i < 8 && r.stats().limbo > 0; ++i) r.try_reclaim();
  const Reclaimer::Stats stats = r.stats();
  EXPECT_EQ(stats.retired, kThreads * kPerThread);
  EXPECT_GT(stats.epoch_advances, 0u);
  EXPECT_EQ(stats.freed, stats.retired);
  EXPECT_EQ(stats.limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(ReclaimTest, ReaderPinBlocksReclamation) {
  Reclaimer r;
  // The pinned reader must be a *different* thread: the retiring thread's
  // own slot is idle from its point of view.
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    const Reclaimer::Guard guard = r.read_guard();
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr std::size_t kObjects = 50;
  for (std::size_t i = 0; i < kObjects; ++i) {
    r.retire(new Tracked, &Tracked::destroy);
  }
  r.try_reclaim();
  // Everything retired after the pin must still be in limbo.
  EXPECT_EQ(r.stats().limbo, kObjects);
  EXPECT_EQ(Tracked::live.load(), static_cast<int>(kObjects));
  EXPECT_GT(r.stats().lagging_readers, 0u);

  release.store(true, std::memory_order_release);
  reader.join();
  for (int i = 0; i < 8 && r.stats().limbo > 0; ++i) r.try_reclaim();
  EXPECT_EQ(r.stats().limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(ReclaimTest, ReaderPinnedAfterARetireDoesNotBlockIt) {
  // A reader that pins after an object's retire cannot hold it: the object
  // is freed while that reader stays pinned, once the older reader left.
  Reclaimer r;
  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread old_reader([&] {
    const Reclaimer::Guard guard = r.read_guard();
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();
  r.retire(new Tracked, &Tracked::destroy);
  r.try_reclaim();  // advances once: the old reader is at the current epoch
  r.try_reclaim();  // blocked by the old reader
  EXPECT_EQ(r.stats().limbo, 1u);

  {
    const Reclaimer::Guard guard = r.read_guard();  // pins at a newer epoch
    release.store(true, std::memory_order_release);
    old_reader.join();
    r.try_reclaim();
    EXPECT_EQ(r.stats().limbo, 0u);
    EXPECT_EQ(Tracked::live.load(), 0);

    // What is retired while this guard is held waits for its unpin.
    r.retire(new Tracked, &Tracked::destroy);
    r.try_reclaim();
    EXPECT_EQ(Tracked::live.load(), 1);
  }
  r.try_reclaim();
  EXPECT_EQ(r.stats().limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(ReclaimTest, GuardIsReentrant) {
  Reclaimer r;
  const Reclaimer::Guard outer = r.read_guard();
  {
    const Reclaimer::Guard inner = r.read_guard();
  }
  // Still pinned: a retire on another thread must not free under us.
  std::thread retirer([&r] {
    r.retire(new Tracked, &Tracked::destroy);
    r.try_reclaim();
  });
  retirer.join();
  EXPECT_EQ(Tracked::live.load(), 1);
}

TEST(ReclaimTest, PinOnRecycledSlotBlocksReclamation) {
  Reclaimer r;
  // The first thread claims a slot, pins, and exits: its slot goes back to
  // the pool. The second thread (the only other user of this reclaimer)
  // claims that same slot on its first pin.
  std::thread([&r] { const Reclaimer::Guard guard = r.read_guard(); }).join();

  std::atomic<bool> pinned{false};
  std::atomic<bool> release{false};
  std::thread reader([&] {
    const Reclaimer::Guard guard = r.read_guard();
    pinned.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!pinned.load(std::memory_order_acquire)) std::this_thread::yield();

  constexpr std::size_t kObjects = 20;
  for (std::size_t i = 0; i < kObjects; ++i) {
    r.retire(new Tracked, &Tracked::destroy);
    r.try_reclaim();
  }
  EXPECT_EQ(r.stats().limbo, kObjects);
  EXPECT_EQ(Tracked::live.load(), static_cast<int>(kObjects));

  release.store(true, std::memory_order_release);
  reader.join();
  for (int i = 0; i < 8 && r.stats().limbo > 0; ++i) r.try_reclaim();
  EXPECT_EQ(r.stats().limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

/// A published object whose deleter poisons it instead of freeing it, so a
/// reader that still holds it after its "free" reads the poison (without
/// touching freed memory).
struct Canary {
  static constexpr std::uint64_t kAlive = 0x600DF00D600DF00DULL;
  static constexpr std::uint64_t kPoison = 0xDEADBEEFDEADBEEFULL;
  std::atomic<std::uint64_t> word{kAlive};

  static std::mutex quarantine_mu;
  static std::vector<Canary*> quarantine;
  static void poison(void* p) {
    auto* c = static_cast<Canary*>(p);
    c->word.store(kPoison, std::memory_order_relaxed);
    const std::lock_guard lock(quarantine_mu);
    quarantine.push_back(c);
  }
};
std::mutex Canary::quarantine_mu;
std::vector<Canary*> Canary::quarantine;

TEST(ReclaimTest, NoReaderEverSeesAReclaimedObject) {
  // Readers pin, load the published object and read its canary across a
  // short spin; the writer republishes, retires and reclaims in a tight
  // loop. Any poison a reader sees is a free while a reader held the
  // object. Fails with the reader's announce removed, or with objects
  // tagged at the oldest pinned reader's epoch freed too.
  Reclaimer r;
  std::atomic<Canary*> published{new Canary};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> poisoned{0};
  std::atomic<std::uint64_t> reads{0};

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      std::uint64_t local_reads = 0;
      std::uint64_t local_poisoned = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const Reclaimer::Guard guard = r.read_guard();
        const Canary* c = published.load(std::memory_order_seq_cst);
        bool bad = c->word.load(std::memory_order_relaxed) != Canary::kAlive;
        for (int spin = 0; spin < 2048; ++spin) {
          bad |= c->word.load(std::memory_order_relaxed) != Canary::kAlive;
        }
        local_poisoned += bad ? 1 : 0;
        ++local_reads;
      }
      poisoned.fetch_add(local_poisoned, std::memory_order_relaxed);
      reads.fetch_add(local_reads, std::memory_order_relaxed);
    });
  }

  const std::uint64_t deadline =
      now_ns() + std::chrono::nanoseconds(std::chrono::milliseconds(300))
                     .count();
  std::uint64_t published_objects = 0;
  while (now_ns() < deadline) {
    Canary* old = published.exchange(new Canary, std::memory_order_seq_cst);
    r.retire(old, &Canary::poison);
    r.try_reclaim();
    ++published_objects;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();

  const Reclaimer::Stats stats = r.stats();
  EXPECT_EQ(poisoned.load(), 0u)
      << "readers saw a reclaimed object (" << reads.load() << " reads, "
      << published_objects << " objects, " << stats.freed << " freed)";
  EXPECT_GT(reads.load(), 0u);
  EXPECT_GT(stats.freed, 0u);

  for (int i = 0; i < 8 && r.stats().limbo > 0; ++i) r.try_reclaim();
  delete published.load();
  const std::lock_guard lock(Canary::quarantine_mu);
  for (Canary* c : Canary::quarantine) delete c;
  Canary::quarantine.clear();
}

TEST(ReclaimTest, RetireScansAreRateLimitedButTryReclaimAlwaysScans) {
  Reclaimer r;
  // With no reader pinned every scan advances the epoch, so advances count
  // scans on both announce paths; fences count them on the relaxed path.
  const Timer timer;
  r.try_reclaim();  // opens a fresh scan window
  const Reclaimer::Stats before = r.stats();
  constexpr int kBurst = 1000;
  for (int i = 0; i < kBurst; ++i) r.retire(new Tracked, &Tracked::destroy);
  const std::uint64_t elapsed = timer.elapsed_ns();
  const Reclaimer::Stats after = r.stats();
  // At most one scan per window started since the try_reclaim: at most 1
  // when the burst fits in one window, as it does on an idle machine.
  const std::uint64_t allowed = elapsed / kIntervalNs;
  EXPECT_LE(after.epoch_advances - before.epoch_advances, allowed)
      << "burst took " << elapsed << " ns";
  EXPECT_LE(after.fences - before.fences, allowed);
  EXPECT_EQ(after.retired - before.retired, static_cast<std::uint64_t>(kBurst));

  const std::uint64_t per_scan = Reclaimer::announce_is_relaxed() ? 1 : 0;
  for (int i = 0; i < 5; ++i) {
    const Reclaimer::Stats s0 = r.stats();
    r.try_reclaim();
    const Reclaimer::Stats s1 = r.stats();
    EXPECT_EQ(s1.epoch_advances - s0.epoch_advances, 1u);
    EXPECT_EQ(s1.fences - s0.fences, per_scan);
  }
  EXPECT_EQ(r.stats().limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(ReclaimTest, RetireScansOnceTheIntervalHasPassed) {
  // No try_reclaim: retire alone must scan (fence, advance, free) once
  // kScanInterval has passed since the last scan. With no reader pinned
  // each scan frees everything retired so far.
  Reclaimer r;
  constexpr std::uint64_t kRounds = 4;
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    std::this_thread::sleep_for(Reclaimer::kScanInterval +
                                std::chrono::milliseconds(1));
    r.retire(new Tracked, &Tracked::destroy);
  }
  const Reclaimer::Stats stats = r.stats();
  EXPECT_EQ(stats.retired, kRounds);
  EXPECT_EQ(stats.epoch_advances, kRounds);
  EXPECT_EQ(stats.freed, kRounds);
  EXPECT_EQ(stats.fences, Reclaimer::announce_is_relaxed() ? kRounds : 0);
  EXPECT_EQ(stats.limbo, 0u);
  EXPECT_EQ(Tracked::live.load(), 0);
}

TEST(ReclaimTest, FenceProbeLogsSelection) {
  // Logs which read-side path this process runs, so a CI log records what
  // its suites exercised: relaxed means membarrier registered and every
  // scan fences. TSan does not model membarrier: TSan builds must keep the
  // seq_cst announce.
  const Reclaimer r;
  const bool relaxed = Reclaimer::announce_is_relaxed();
  std::printf("[reclaim-fence-probe] announce=%s\n",
              relaxed ? "relaxed" : "seq_cst");
  EXPECT_TRUE(!concurrent::detail::kTsanBuild || !relaxed);
}

// ---------------------------------------------------------------------------
// CPLDS integration
// ---------------------------------------------------------------------------

TEST(ReclaimCplds, ViewReadsBitEqualToSyncReadsUnderStress) {
  // Reader/writer stress: concurrent view readers never crash or tear, and
  // once quiescent every read path agrees bit-for-bit with the locked
  // SyncReads baseline.
  Reclaimer reclaimer;
  constexpr vertex_t kN = 2000;
  CPLDS::Options opt;
  opt.reclaimer = &reclaimer;
  CPLDS ds(kN, LDSParams::create(kN), opt);
  const auto edges = gen::barabasi_albert(kN, 8, 91);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  constexpr int kReaders = 6;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&ds, &stop, t] {
      Xoshiro256 rng(1000 + static_cast<std::uint64_t>(t));
      while (!stop.load(std::memory_order_relaxed)) {
        const auto v = static_cast<vertex_t>(rng.next_below(kN));
        const level_t l = ds.read_level(v);
        ASSERT_GE(l, 0);  // never torn garbage
      }
    });
  }
  constexpr std::size_t kBatch = 500;
  for (std::size_t i = 0; i < edges.size(); i += kBatch) {
    // Space the first batches a scan interval apart, so their retires scan
    // and free views while the readers run.
    if (i < 8 * kBatch) {
      std::this_thread::sleep_for(Reclaimer::kScanInterval +
                                  std::chrono::milliseconds(1));
    }
    const std::size_t end = std::min(edges.size(), i + kBatch);
    ds.insert_batch({edges.begin() + static_cast<std::ptrdiff_t>(i),
                     edges.begin() + static_cast<std::ptrdiff_t>(end)});
  }
  EXPECT_GT(reclaimer.stats().freed, 0u);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : readers) th.join();

  for (vertex_t v = 0; v < kN; ++v) {
    const level_t sync_level = ds.read_level_sync(v);
    ASSERT_EQ(ds.read_level(v), sync_level)
        << "view read diverged from SyncReads at v=" << v;
    ASSERT_EQ(ds.read_level_nonsync(v), sync_level) << v;
  }
  // The batches after the spaced ones may fit in one scan window; with no
  // reader left, one explicit scan frees the rest.
  reclaimer.try_reclaim();
  const Reclaimer::Stats stats = ds.reclaimer().stats();
  EXPECT_GT(stats.retired, 0u);
  EXPECT_EQ(stats.freed, stats.retired);
}

TEST(ReclaimCplds, ViewVersionCountsMovingBatches) {
  constexpr vertex_t kN = 64;
  Reclaimer reclaimer;
  CPLDS::Options opt;
  opt.reclaimer = &reclaimer;
  CPLDS ds(kN, LDSParams::create(kN), opt);
  EXPECT_EQ(ds.view_version(), 0u);
  // A dense clique forces level moves; version advances.
  std::vector<Edge> clique;
  for (vertex_t u = 0; u < 16; ++u) {
    for (vertex_t v = u + 1; v < 16; ++v) clique.push_back({u, v});
  }
  ds.insert_batch(clique);
  const std::uint64_t after_clique = ds.view_version();
  EXPECT_GT(after_clique, 0u);
  // A no-op batch (re-inserting existing edges) publishes nothing.
  ds.insert_batch(clique);
  EXPECT_EQ(ds.view_version(), after_clique);
}

TEST(LevelViewTest, SuccessorSharesUntouchedPages) {
  constexpr vertex_t kN = LevelView::kPageSize * 3 + 5;  // 4 pages
  const LevelView* v0 = LevelView::initial(kN, 0);
  EXPECT_EQ(v0->num_pages(), 4u);
  for (vertex_t v = 0; v < kN; ++v) ASSERT_EQ(v0->level(v), 0);

  // Touch one vertex in page 2 only.
  const vertex_t moved = 2 * LevelView::kPageSize + 7;
  const vertex_t moved_arr[] = {moved};
  const LevelView* v1 = LevelView::successor(
      *v0, moved_arr, [&](vertex_t v) { return v == moved ? 5 : 0; });
  EXPECT_EQ(v1->version(), 1u);
  EXPECT_EQ(v1->level(moved), 5);
  EXPECT_EQ(v1->level(moved - 1), 0);
  EXPECT_EQ(v1->level(0), 0);

  // Destroying the predecessor must leave the successor (and its shared
  // pages) fully readable.
  LevelView::destroy(v0);
  EXPECT_EQ(v1->level(moved), 5);
  EXPECT_EQ(v1->level(kN - 1), 0);
  LevelView::destroy(v1);
}

}  // namespace
}  // namespace cpkcore
