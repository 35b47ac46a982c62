#include "concurrent/reclaim.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>

#if defined(__linux__)
#include <linux/membarrier.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "obs/event_log.hpp"
#include "util/timer.hpp"

namespace cpkcore::concurrent {

using detail::ReclaimSlot;

namespace {

constexpr std::uint64_t kIdle = ReclaimSlot::kIdle;
constexpr auto kIntervalNs = static_cast<std::uint64_t>(
    std::chrono::nanoseconds(Reclaimer::kScanInterval).count());

/// Limbo depth at which reclamation blocked for a scan interval becomes a
/// journal event (the EventLog rate-limits repeats per (component, name)).
constexpr std::size_t kStallEventLimbo = 64;

/// Registry of live reclaimers' slot arrays, keyed by a never-reused id.
/// Slot release at thread exit and reclaimer destruction race freely: both
/// serialize here, and a thread exiting after "its" reclaimer died simply
/// finds the id gone. Heap-allocated and leaked so thread-exit destructors
/// can run at any point of process teardown.
std::mutex& registry_mu() {
  static auto* mu = new std::mutex;
  return *mu;
}

std::unordered_map<std::uint64_t, ReclaimSlot*>& live_reclaimers() {
  static auto* map = new std::unordered_map<std::uint64_t, ReclaimSlot*>;
  return *map;
}

std::atomic<std::uint64_t> next_id{1};

#if defined(__linux__) && defined(__NR_membarrier)
long membarrier(int cmd) { return syscall(__NR_membarrier, cmd, 0, 0); }

bool register_membarrier() {
  const long cmds = membarrier(MEMBARRIER_CMD_QUERY);
  if (cmds < 0 || (cmds & MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0) {
    return false;
  }
  return membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) == 0;
}

/// A full memory barrier on every running thread of this process.
bool heavy_fence() {
  return membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0;
}
#else
bool register_membarrier() { return false; }
bool heavy_fence() { return false; }
#endif

struct SlotCache {
  struct Entry {
    std::uint64_t reclaimer_id = 0;
    std::uint32_t slot = 0;
  };
  std::vector<Entry> entries;
  ~SlotCache();
};

thread_local SlotCache t_slots;

SlotCache::~SlotCache() {
  std::lock_guard lock(registry_mu());
  auto& live = live_reclaimers();
  for (const Entry& e : entries) {
    // A released slot may be claimed by another thread at once: drop the
    // fast-path pointer to it first.
    detail::SlotCacheEntry& c =
        detail::t_slot_cache[e.reclaimer_id % detail::kSlotCacheWays];
    if (c.reclaimer_id == e.reclaimer_id) c = {};
    auto it = live.find(e.reclaimer_id);
    if (it == live.end()) continue;
    ReclaimSlot& s = it->second[e.slot];
    s.epoch.store(kIdle, std::memory_order_release);
    s.nesting = 0;
    // Release store: a scanner that observes the slot unclaimed (acquire)
    // happens-after every read the departed thread did under a pin.
    s.claimed.store(false, std::memory_order_release);
  }
}

}  // namespace

// pin announces the global epoch into the thread's slot before the reader's
// first data load. The view un-publish is a seq_cst store, and every slot
// scan is preceded by a heavy fence (membarrier) on the relaxed-announce
// path, so any reader that obtained a since-retired pointer is visible as
// pinned to every later slot scan (the classic store/load ordering; on the
// fallback path the reader's seq_cst store provides it). retire tags the
// object with the epoch *at retire time* — at or after the un-publish — so
// a reader that could hold it is pinned at that epoch or earlier (it read
// the global epoch before its view load, and any later epoch was stored
// after the retire). So once a scan finds no pinned slot at or before an
// object's tag, the object is freed. The epoch advances only when no slot
// is pinned behind it, so readers that pin later announce newer epochs
// than what is already in limbo.

Reclaimer::Reclaimer() : id_(next_id.fetch_add(1, std::memory_order_relaxed)) {
  // Once per process, before any reclaimer exists (so no reader is pinned
  // yet): a reader can only see the relaxed path once every scan fences.
  static const bool relaxed = [] {
    const bool ok = !detail::kTsanBuild && register_membarrier();
    detail::relaxed_announce.store(ok, std::memory_order_relaxed);
    return ok;
  }();
  (void)relaxed;
  std::lock_guard lock(registry_mu());
  live_reclaimers().emplace(id_, slots_);
}

Reclaimer::~Reclaimer() {
  {
    std::lock_guard lock(registry_mu());
    live_reclaimers().erase(id_);
  }
  // Contract: no pinned readers remain. Free everything still in limbo.
  for (const RetiredObject& r : limbo_) r.deleter(r.ptr);
}

ReclaimSlot* Reclaimer::slot_slow() {
  ReclaimSlot* s = nullptr;
  for (const SlotCache::Entry& e : t_slots.entries) {
    if (e.reclaimer_id == id_) {
      s = &slots_[e.slot];
      break;
    }
  }
  if (s == nullptr) s = &claim_slot();
  detail::t_slot_cache[id_ % detail::kSlotCacheWays] = {id_, s};
  return s;
}

ReclaimSlot& Reclaimer::claim_slot() {
  for (std::uint32_t i = 0; i < kMaxSlots; ++i) {
    bool expected = false;
    if (slots_[i].claimed.load(std::memory_order_relaxed)) continue;
    if (slots_[i].claimed.compare_exchange_strong(
            expected, true, std::memory_order_acq_rel)) {
      slots_[i].nesting = 0;
      slots_[i].epoch.store(kIdle, std::memory_order_seq_cst);
      t_slots.entries.push_back({id_, i});
      return slots_[i];
    }
  }
  throw std::runtime_error(
      "Reclaimer: out of thread slots (> 256 concurrent reader threads)");
}

void Reclaimer::retire(void* p, Deleter deleter) {
  std::lock_guard lock(limbo_mu_);
  limbo_.push_back({p, deleter, global_.load(std::memory_order_relaxed)});
  retired_.fetch_add(1, std::memory_order_relaxed);
  if (now_ns() - last_scan_ns_ >= kIntervalNs) reclaim_locked();
}

std::size_t Reclaimer::try_reclaim() {
  std::lock_guard lock(limbo_mu_);
  return reclaim_locked();
}

Reclaimer::Stats Reclaimer::stats() const {
  Stats s;
  s.epoch_advances = advances_.load(std::memory_order_relaxed);
  s.retired = retired_.load(std::memory_order_relaxed);
  s.freed = freed_.load(std::memory_order_relaxed);
  s.lagging_readers = lagging_.load(std::memory_order_relaxed);
  s.fences = fences_.load(std::memory_order_relaxed);
  std::lock_guard lock(limbo_mu_);
  s.limbo = limbo_.size();
  return s;
}

// Deleters run inline (they must not call back into the reclaimer).
std::size_t Reclaimer::reclaim_locked() {
  last_scan_ns_ = now_ns();
  // The oldest epoch a pinned reader announced: everything tagged before it
  // is unreachable. No reader pinned frees the whole limbo; 0 frees nothing.
  std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
  // Relaxed-announce path: make every reader's announce visible before the
  // scan. A failed fence (never seen after a successful registration)
  // frees nothing rather than risk a missed reader.
  if (announce_is_relaxed()) {
    fences_.fetch_add(1, std::memory_order_relaxed);
    if (!heavy_fence()) oldest = kIdle;
  }
  for (const ReclaimSlot& s : slots_) {
    if (oldest == kIdle) break;
    // Skipped (unclaimed) slots synchronize via the acquire load.
    if (!s.claimed.load(std::memory_order_acquire)) continue;
    const std::uint64_t w = s.epoch.load(std::memory_order_seq_cst);
    if (w != kIdle) oldest = std::min(oldest, w);
  }
  const std::uint64_t e = global_.load(std::memory_order_relaxed);
  if (oldest >= e) {  // no reader pinned behind e
    global_.store(e + 1, std::memory_order_seq_cst);
    advances_.fetch_add(1, std::memory_order_relaxed);
    blocked_since_ns_ = 0;
  } else {
    lagging_.fetch_add(1, std::memory_order_relaxed);
    // A stall is the epoch held back for a whole scan interval, not an
    // ordinary short pin that a scan happened to meet.
    const std::uint64_t now = now_ns();
    if (blocked_since_ns_ == 0) blocked_since_ns_ = now;
    if (now - blocked_since_ns_ >= kIntervalNs &&
        limbo_.size() >= kStallEventLimbo) {
      obs::EventLog::instance().emit(
          obs::Severity::kWarn, "reclaim", "reclaimer_stall",
          {{"algo", std::string(name())},
           {"limbo", std::to_string(limbo_.size())},
           {"epoch", std::to_string(e)}});
    }
  }
  std::size_t freed = 0;
  std::size_t kept = 0;
  for (RetiredObject& r : limbo_) {
    if (r.epoch < oldest) {
      r.deleter(r.ptr);
      ++freed;
    } else {
      limbo_[kept++] = r;
    }
  }
  limbo_.resize(kept);
  freed_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

Reclaimer& global_reclaimer() {
  // Leaked: bare CPLDS instances retire into it until process exit, and
  // thread-exit slot releases must outlive static destruction order.
  static auto* instance = new Reclaimer;
  return *instance;
}

}  // namespace cpkcore::concurrent
