#include "cluster/log_ship.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "service/wal.hpp"

namespace cpkcore::cluster {

namespace {

/// Journals one catch-up serving pass: which source fed the subscriber
/// (the retention ring or the on-disk WAL) and how many records it
/// served. A replica joining far behind flips between the two as the
/// ring advances under it — the event stream is how an operator sees
/// that dance.
void emit_catchup(const std::string& component, const char* source,
                  std::uint64_t from_lsn, std::uint64_t records) {
  obs::EventLog::instance().emit(
      obs::Severity::kInfo, component, "catchup_source",
      {{"source", source},
       {"from_lsn", std::to_string(from_lsn)},
       {"records", std::to_string(records)}});
}

}  // namespace

LogShipper::LogShipper(service::KCoreService& primary)
    : LogShipper(primary, Options()) {}

LogShipper::LogShipper(service::KCoreService& primary, Options options)
    : primary_(primary),
      options_(options),
      wal_path_(primary.config().wal_path),
      num_vertices_(primary.num_vertices()) {
  // set_commit_listener returns the commit LSN as of registration, under
  // the primary's cycle lock — exactly the first LSN we will NOT receive
  // live. But a commit can already be delivered between that call
  // returning and this constructor touching last_lsn_, and mu_ cannot be
  // held across the registration (on_commit runs under the primary's
  // cycle lock and then takes mu_ — the opposite order). So whoever gets
  // to mu_ first seeds the cursor: on_commit from its first record's
  // predecessor, or this constructor from the registration LSN — the two
  // agree, since the first live record is always registration + 1.
  const std::uint64_t at_registration = primary_.set_commit_listener(
      [this](const service::WalFramePtr& frame) { on_commit(frame); });
  attached_ = true;
  std::lock_guard lock(mu_);
  if (!cursor_seeded_) {
    last_lsn_ = at_registration;
    cursor_seeded_ = true;
  }
}

void LogShipper::detach() {
  if (!attached_) return;
  primary_.set_commit_listener(nullptr);
  attached_ = false;
}

void LogShipper::on_commit(const service::WalFramePtr& frame) {
  const std::uint64_t lsn = frame->lsn();
  std::lock_guard lock(mu_);
  // First delivery beat the constructor to the cursor (see there).
  if (!cursor_seeded_) {
    last_lsn_ = lsn - 1;
    cursor_seeded_ = true;
  }
  // The primary assigns consecutive LSNs and commits them in order; a gap
  // here would mean shipped streams silently diverge from the log.
  if (lsn != last_lsn_ + 1) {
    throw std::runtime_error("LogShipper: non-consecutive commit LSN");
  }
  last_lsn_ = lsn;
  // Retaining the frame is a shared_ptr copy — the encoded bytes the WAL
  // just committed are never duplicated on this path.
  const ShippedRecord record{lsn, frame};
  retained_.push_back(record);
  // Evict *after* the push so retain_records = 0 still ships live records
  // (the ring then only serves subscribers already caught up).
  while (retained_.size() > options_.retain_records) retained_.pop_front();
  retained_peak_ = std::max(retained_peak_, retained_.size());
  ++shipped_;
  CPKC_TRACE_INSTANT("ship", lsn, subscribers_.size());
  for (auto& [id, cb] : subscribers_) {
    cb(record);
  }
}

std::uint64_t LogShipper::subscribe(std::uint64_t from_lsn,
                                    Callback callback) {
  // Largest ring backlog delivered while holding mu_ (and therefore while
  // stalling the primary's commit path). A bigger backlog is copied out
  // (shared_ptrs — cheap) and delivered unlocked, then re-checked; the
  // final splice is always the small-in-lock case, so delivery order is
  // preserved with a bounded stall.
  constexpr std::size_t kSpliceChunk = 256;
  for (;;) {
    std::unique_lock lock(mu_);
    // First LSN the ring (plus the live stream) can serve contiguously.
    const std::uint64_t ring_start =
        retained_.empty() ? last_lsn_ + 1 : retained_.front().lsn;
    if (from_lsn + 1 >= ring_start) {
      std::vector<ShippedRecord> backlog;
      for (const ShippedRecord& rec : retained_) {
        if (rec.lsn > from_lsn) backlog.push_back(rec);
      }
      if (backlog.size() <= kSpliceChunk) {
        for (const ShippedRecord& rec : backlog) {
          callback(rec);
          ++catchup_;
        }
        const std::uint64_t id = next_id_++;
        subscribers_.emplace(id, std::move(callback));
        lock.unlock();
        if (!backlog.empty()) {
          emit_catchup(options_.event_component, "ring", from_lsn,
                       backlog.size());
        }
        return id;
      }
      lock.unlock();
      emit_catchup(options_.event_component, "ring", from_lsn,
                   backlog.size());
      for (const ShippedRecord& rec : backlog) callback(rec);
      from_lsn = backlog.back().lsn;
      {
        std::lock_guard stats_lock(mu_);
        catchup_ += backlog.size();
      }
      continue;
    }
    // The ring has evicted records the subscriber needs: serve the range
    // (from_lsn, ring_start) from the on-disk log, outside the lock so the
    // primary's commit path is not stalled behind file IO. The WAL only
    // grows meanwhile (checkpoint compaction would raise its base LSN, and
    // the base check below catches that), so re-checking the ring on the
    // next iteration closes any window the eviction opened.
    const std::uint64_t need_below = ring_start;
    lock.unlock();
    if (wal_path_.empty()) {
      throw std::runtime_error(
          "LogShipper: subscriber needs records evicted from retention and "
          "the primary has no WAL to catch up from");
    }
    // With the WAL flusher the ring can be ahead of the disk: a
    // record enters retention at apply time but its frame may still sit in
    // the flusher's queue. Wait for the needed prefix to become
    // durable before scanning, or the scan would legitimately stop at the
    // not-yet-flushed tail and we would misreport "WAL ends before the
    // retention ring begins". A false return (flusher failed / service
    // stopping) falls through — the shortfall checks below surface it.
    if (need_below > 1) primary_.wait_wal_durable(need_below - 1);
    std::uint64_t served_upto = from_lsn;
    // scan_wal_frames lifts v4 frames straight off disk — the subscriber
    // receives the identical bytes the live stream carries, with no decode
    // (and no re-encode) on this path.
    const service::WalScanInfo info = service::scan_wal_frames(
        wal_path_, num_vertices_,
        [&](const service::WalFramePtr& frame) {
          const std::uint64_t lsn = frame->lsn();
          if (lsn <= from_lsn || lsn >= need_below) return;
          callback(ShippedRecord{lsn, frame});
          served_upto = lsn;
        });
    if (info.base_lsn > from_lsn) {
      throw std::runtime_error(
          "LogShipper: records before the WAL base LSN were compacted away; "
          "bootstrap the replica from a snapshot instead");
    }
    if (served_upto + 1 < need_below) {
      throw std::runtime_error(
          "LogShipper: WAL ends before the retention ring begins");
    }
    {
      std::lock_guard stats_lock(mu_);
      const std::uint64_t n = served_upto - from_lsn;
      catchup_ += n;
      disk_ += n;
    }
    if (served_upto > from_lsn) {
      emit_catchup(options_.event_component, "disk", from_lsn,
                   served_upto - from_lsn);
    }
    from_lsn = served_upto;
  }
}

void LogShipper::unsubscribe(std::uint64_t id) {
  std::lock_guard lock(mu_);
  subscribers_.erase(id);
}

std::uint64_t LogShipper::last_shipped_lsn() const {
  std::lock_guard lock(mu_);
  return last_lsn_;
}

LogShipper::Stats LogShipper::stats() const {
  std::lock_guard lock(mu_);
  Stats out;
  out.shipped_records = shipped_;
  out.catchup_records = catchup_;
  out.disk_records = disk_;
  out.retained = retained_.size();
  out.retained_peak = retained_peak_;
  out.retain_capacity = options_.retain_records;
  out.subscribers = subscribers_.size();
  return out;
}

}  // namespace cpkcore::cluster
