#include "concurrent/reclaim.hpp"

#include <stdexcept>
#include <string>
#include <unordered_map>

#include "obs/event_log.hpp"

namespace cpkcore::concurrent {

using detail::ReclaimSlot;

namespace {

constexpr std::uint64_t kIdle = ReclaimSlot::kIdle;

/// Limbo depth at which a blocked reclamation attempt becomes a journal
/// event (the EventLog rate-limits repeats per (component, name)).
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

// pin announces the global epoch into the thread's slot with a seq_cst
// store before the reader's first data load; the view un-publish is a
// seq_cst store too, so any reader that obtained a since-retired pointer is
// visible as pinned to every later slot scan (the classic store/load
// ordering). retire tags the object with the epoch *at retire time* — at or
// after the un-publish — so a reader that could hold it is pinned at that
// epoch or earlier. The epoch advances only when no slot is pinned behind
// it; after two advances past an object's tag no such reader can still be
// pinned, and the object is freed.

Reclaimer::Reclaimer() : id_(next_id.fetch_add(1, std::memory_order_relaxed)) {
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

ReclaimSlot& Reclaimer::my_slot() {
  for (const SlotCache::Entry& e : t_slots.entries) {
    if (e.reclaimer_id == id_) return slots_[e.slot];
  }
  return claim_slot();
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

void Reclaimer::pin() {
  ReclaimSlot& s = my_slot();
  if (s.nesting++ == 0) {
    // Announce-then-read: the seq_cst store orders the announcement
    // before the reader's first shared load, pairing with the seq_cst
    // view un-publish on the writer (no standalone fences — TSan models
    // atomic operations, not fences).
    s.epoch.store(global_.load(std::memory_order_seq_cst),
                  std::memory_order_seq_cst);
  }
}

void Reclaimer::unpin() {
  ReclaimSlot& s = my_slot();
  if (--s.nesting == 0) {
    s.epoch.store(kIdle, std::memory_order_release);
  }
}

void Reclaimer::retire(void* p, Deleter deleter) {
  std::lock_guard lock(limbo_mu_);
  limbo_.push_back({p, deleter, global_.load(std::memory_order_relaxed)});
  retired_.fetch_add(1, std::memory_order_relaxed);
  reclaim_locked();
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
  std::lock_guard lock(limbo_mu_);
  s.limbo = limbo_.size();
  return s;
}

// Deleters run inline (they must not call back into the reclaimer).
std::size_t Reclaimer::reclaim_locked() {
  const std::uint64_t e = global_.load(std::memory_order_relaxed);
  bool quiet = true;
  for (const ReclaimSlot& s : slots_) {
    // Skipped (unclaimed) slots synchronize via the acquire load.
    if (!s.claimed.load(std::memory_order_acquire)) continue;
    const std::uint64_t w = s.epoch.load(std::memory_order_seq_cst);
    if (w != kIdle && w < e) {  // pinned behind e blocks the advance
      quiet = false;
      break;
    }
  }
  if (quiet) {
    global_.store(e + 1, std::memory_order_seq_cst);
    advances_.fetch_add(1, std::memory_order_relaxed);
  } else {
    lagging_.fetch_add(1, std::memory_order_relaxed);
    if (limbo_.size() >= kStallEventLimbo) {
      obs::EventLog::instance().emit(
          obs::Severity::kWarn, "reclaim", "reclaimer_stall",
          {{"algo", std::string(name())},
           {"limbo", std::to_string(limbo_.size())},
           {"epoch", std::to_string(e)}});
    }
  }
  const std::uint64_t g = global_.load(std::memory_order_relaxed);
  std::size_t freed = 0;
  std::size_t kept = 0;
  for (RetiredObject& r : limbo_) {
    if (r.epoch + 2 <= g) {
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
