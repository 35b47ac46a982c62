// Safe memory reclamation for the lock-free read path: epoch-based
// reclamation (EBR) with an asymmetric announce.
//
// The CPLDS publishes an immutable LevelView per committed batch (pointer
// swap); readers traverse the latest view without locks. Retired views
// cannot be freed while a reader may still hold them — that is this
// layer's job.
//
//   reader thread ──pin()──▶ per-thread slot (epoch announce / nesting)
//        │ view_.load(), traverse                   ▲ scanned by
//        └─unpin()                                  │
//   apply thread ──retire(old view)──▶ limbo list ──┴─▶ fence + scan,
//                                                       advance + free
//
// Scheme: pin announces the global epoch in the thread's slot; retire tags
// the object with the current epoch; a scan frees every object tagged
// before the oldest epoch a pinned reader announced (all of limbo when no
// reader is pinned), and advances the epoch when every pinned slot has
// caught up.
//
// Asymmetric announce (Publish-on-Ping style): the reader's announce is a
// plain (relaxed) store plus a compiler-only fence — no hardware fence on
// the read path. The reclaimer pays instead: right before every slot scan
// it issues membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED), a full barrier on
// every running thread of the process. After it, either a reader's
// announce is visible to the scan, or that reader's view load comes after
// the un-publish and cannot return the retired view — the classic
// store/load argument, with the reader's half of the fence moved to the
// reclaimer. Each fence interrupts every CPU running the process, so
// retire() scans at most once per kScanInterval per reclaimer; try_reclaim()
// always scans, and the service and replica apply threads call it once
// they have been idle for kScanInterval. Unless a reader holds it back, a
// retired object is freed by the first scan after its retire, so limbo
// holds at most one interval's retirements.
//
// Fallback, chosen once per process with no knob: TSan builds (TSan does
// not model membarrier) and processes where membarrier registration fails
// (old kernels, seccomp) announce with a seq_cst store instead, pairing
// with the seq_cst view un-publish, and scan without the heavy fence.
// announce_is_relaxed() reports which path this process runs.
//
// A reader that stays pinned holds the epoch back: that shows up in
// `lagging_readers` and, once limbo piles up, as a rate-limited
// "reclaimer_stall" event in the journal.
//
// Threading contract: any thread may pin/unpin (slots are acquired on first
// pin and released at thread exit); retire and try_reclaim may be called
// from any thread (serialized internally) but are typically the structure's
// single apply thread. Destroying a reclaimer requires that no thread is
// pinned and no further pins will occur; remaining limbo objects are freed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "util/cacheline.hpp"

namespace cpkcore::concurrent {

namespace detail {

/// Per-thread reclamation state, one slot per (thread, reclaimer) pair.
/// `epoch` is the only cross-thread field: the epoch the owner announced
/// while pinned, or kIdle when it is not in a critical section (the global
/// epoch starts at 1, so the sentinel never collides with a real epoch).
struct alignas(kCacheLine) ReclaimSlot {
  static constexpr std::uint64_t kIdle = 0;

  std::atomic<bool> claimed{false};
  std::atomic<std::uint64_t> epoch{kIdle};
  std::uint32_t nesting = 0;  ///< owner thread only
};

/// Per-thread, direct-mapped cache of slot pointers keyed by reclaimer id
/// (ids are never reused, so a stale entry never matches). A few ways keep
/// threads that fan out over several reclaimers (one per partition and
/// replica) from thrashing; a miss falls back to the thread's registry.
struct SlotCacheEntry {
  std::uint64_t reclaimer_id = 0;
  ReclaimSlot* slot = nullptr;
};
inline constexpr std::size_t kSlotCacheWays = 4;
inline thread_local SlotCacheEntry t_slot_cache[kSlotCacheWays];

#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsanBuild = true;
#else
inline constexpr bool kTsanBuild = false;
#endif
#else
inline constexpr bool kTsanBuild = false;
#endif

/// Set once, before the first reclaimer exists, when this process
/// registered for membarrier and so may use the relaxed announce (never in
/// TSan builds).
inline std::atomic<bool> relaxed_announce{false};

}  // namespace detail

class Reclaimer {
 public:
  /// Deletes/frees one retired object. Must be self-contained: it may run
  /// on the retiring thread (during a later retire/try_reclaim) or in the
  /// reclaimer's destructor, after the retiring structure is gone.
  using Deleter = void (*)(void*);

  /// Minimum spacing of the scans retire() triggers (try_reclaim is not
  /// limited).
  static constexpr std::chrono::milliseconds kScanInterval{10};

  /// Monotone counters (plus the limbo gauge), snapshot via stats().
  struct Stats {
    std::uint64_t epoch_advances = 0;  ///< global epoch increments
    std::uint64_t retired = 0;         ///< objects handed to retire()
    std::uint64_t freed = 0;           ///< retired objects actually freed
    /// Reclamation attempts blocked by a reader pinned at an older epoch.
    std::uint64_t lagging_readers = 0;
    /// Heavy fences (a process-wide membarrier) issued before slot scans;
    /// stays 0 on the seq_cst fallback.
    std::uint64_t fences = 0;
    std::size_t limbo = 0;  ///< gauge: retired objects not yet freed
  };

  /// RAII pin: the reclaimer guarantees that no object retired after the
  /// pin is freed before the unpin. Nestable per thread; movable. Holds
  /// the thread's slot, so the unpin needs no lookup.
  class Guard {
   public:
    Guard() = default;
    explicit Guard(Reclaimer* r) : slot_(r != nullptr ? r->pin() : nullptr) {}
    ~Guard() {
      if (slot_ != nullptr) unpin(*slot_);
    }
    Guard(Guard&& other) noexcept
        : slot_(std::exchange(other.slot_, nullptr)) {}
    Guard& operator=(Guard&& other) noexcept {
      if (this != &other) {
        if (slot_ != nullptr) unpin(*slot_);
        slot_ = std::exchange(other.slot_, nullptr);
      }
      return *this;
    }
    Guard(const Guard&) = delete;
    Guard& operator=(const Guard&) = delete;

   private:
    detail::ReclaimSlot* slot_ = nullptr;
  };

  Reclaimer();
  ~Reclaimer();

  Reclaimer(const Reclaimer&) = delete;
  Reclaimer& operator=(const Reclaimer&) = delete;

  /// Protects a read-side critical section.
  [[nodiscard]] Guard read_guard() { return Guard(this); }

  /// Hands one unreachable (already un-published) object to the reclaimer;
  /// `deleter(p)` runs once it is provably unreachable by every reader.
  /// Reclaims older objects inline, at most once per kScanInterval.
  void retire(void* p, Deleter deleter);

  /// One fence + scan + free, with no rate limit (idle housekeeping and
  /// tests). Returns the number of objects freed.
  std::size_t try_reclaim();

  [[nodiscard]] Stats stats() const;
  /// The scheme's name, reported in bench run descriptors.
  [[nodiscard]] std::string_view name() const { return "epoch"; }

  /// Whether readers announce with a relaxed store and scans fence with
  /// membarrier (registered once, when the first reclaimer is built; never
  /// in TSan builds) rather than announcing with a seq_cst store.
  [[nodiscard]] static bool announce_is_relaxed() {
    return detail::relaxed_announce.load(std::memory_order_relaxed);
  }

 private:
  /// Max threads pinned into one reclaimer at once (slots are recycled at
  /// thread exit).
  static constexpr std::size_t kMaxSlots = 256;

  /// One retired object awaiting its safe epoch.
  struct RetiredObject {
    void* ptr = nullptr;
    Deleter deleter = nullptr;
    std::uint64_t epoch = 0;
  };

  detail::ReclaimSlot* pin() {
    detail::SlotCacheEntry& c =
        detail::t_slot_cache[id_ % detail::kSlotCacheWays];
    detail::ReclaimSlot* s = c.reclaimer_id == id_ ? c.slot : slot_slow();
    if (s->nesting++ == 0) {
      // Announce-then-read. The acquire keeps the caller's view load after
      // the epoch load (else a reader could announce e+1 while holding a
      // view tagged e).
      const std::uint64_t e = global_.load(std::memory_order_acquire);
      if (!detail::kTsanBuild && announce_is_relaxed()) {
        // The reclaimer's membarrier orders this store before the view
        // load; only the compiler must be kept from swapping them.
        s->epoch.store(e, std::memory_order_relaxed);
        std::atomic_signal_fence(std::memory_order_seq_cst);
      } else {
        // Fallback: the seq_cst store pairs with the seq_cst view
        // un-publish on the writer.
        s->epoch.store(e, std::memory_order_seq_cst);
      }
    }
    return s;
  }

  static void unpin(detail::ReclaimSlot& s) {
    if (--s.nesting == 0) {
      s.epoch.store(detail::ReclaimSlot::kIdle, std::memory_order_release);
    }
  }

  /// Cache miss: the thread's slot from its registry (claiming one on
  /// first use), installed into the cache.
  detail::ReclaimSlot* slot_slow();
  detail::ReclaimSlot& claim_slot();
  /// Fence, advance-and-free under limbo_mu_.
  std::size_t reclaim_locked();

  const std::uint64_t id_;
  std::atomic<std::uint64_t> global_{1};
  detail::ReclaimSlot slots_[kMaxSlots];
  mutable std::mutex limbo_mu_;
  std::vector<RetiredObject> limbo_;    // under limbo_mu_
  std::uint64_t last_scan_ns_ = 0;      // under limbo_mu_
  std::uint64_t blocked_since_ns_ = 0;  // under limbo_mu_; 0: advancing
  std::atomic<std::uint64_t> advances_{0};
  std::atomic<std::uint64_t> retired_{0};
  std::atomic<std::uint64_t> freed_{0};
  std::atomic<std::uint64_t> lagging_{0};
  std::atomic<std::uint64_t> fences_{0};
};

/// Process-wide default: what a CPLDS uses when its owner wires no instance
/// of its own. Never destroyed — bare CPLDS instances (tests, examples) may
/// retire into it up to the end of the process.
[[nodiscard]] Reclaimer& global_reclaimer();

}  // namespace cpkcore::concurrent
