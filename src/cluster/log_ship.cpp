#include "cluster/log_ship.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/trace.hpp"
#include "service/wal.hpp"

namespace cpkcore::cluster {

namespace {

/// Journals one catch-up serving pass: which source fed the subscriber
/// (the on-disk WAL, or the splice buffer of records committed while it
/// replayed the WAL) and how many records it served.
void emit_catchup(const std::string& component, const char* source,
                  std::uint64_t from_lsn, std::uint64_t records) {
  obs::EventLog::instance().emit(
      obs::Severity::kInfo, component, "catchup_source",
      {{"source", source},
       {"from_lsn", std::to_string(from_lsn)},
       {"records", std::to_string(records)}});
}

}  // namespace

LogShipper::LogShipper(service::KCoreService& primary,
                       std::string event_component)
    : primary_(primary),
      event_component_(std::move(event_component)),
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
  // Buffering the frame is a shared_ptr copy — the encoded bytes the WAL
  // just committed are never duplicated on this path.
  const ShippedRecord record{lsn, frame};
  ++shipped_;
  CPKC_TRACE_INSTANT("ship", lsn, subscribers_.size());
  for (auto& [id, sub] : subscribers_) {
    if (sub.live) {
      sub.callback(record);
    } else {
      sub.pending.push_back(record);
    }
  }
}

std::uint64_t LogShipper::subscribe(std::uint64_t from_lsn,
                                    Callback callback) {
  std::uint64_t id = 0;
  std::uint64_t splice_lsn = 0;  // last record the WAL replay must serve
  {
    std::lock_guard lock(mu_);
    id = next_id_++;
    splice_lsn = last_lsn_;
    if (from_lsn >= splice_lsn) {
      subscribers_.emplace(id, Subscriber{std::move(callback), {}, true});
      return id;
    }
    if (wal_path_.empty()) {
      throw std::runtime_error(
          "LogShipper: subscriber is behind the live stream and the primary "
          "has no WAL to catch up from");
    }
    // Not yet live: from here on on_commit buffers this joiner's records.
    subscribers_.emplace(id, Subscriber{});
  }
  std::uint64_t from_disk = 0;
  std::uint64_t buffered = 0;  // records served from the splice buffer
  try {
    // The live stream can run ahead of the disk: a record ships at apply
    // time while its frame may still sit in the WAL flusher's queue. Wait
    // for the splice prefix to become durable, or the scan would stop at
    // the not-yet-flushed tail. A false return (flusher failed / service
    // stopping) falls through — the shortfall check below surfaces it.
    primary_.wait_wal_durable(splice_lsn);
    std::uint64_t served_upto = from_lsn;
    // scan_wal_frames lifts v4 frames straight off disk — the subscriber
    // receives the identical bytes the live stream carries, with no decode
    // (and no re-encode) on this path.
    const service::WalScanInfo info = service::scan_wal_frames(
        wal_path_, num_vertices_,
        [&](const service::WalFramePtr& frame) {
          const std::uint64_t lsn = frame->lsn();
          if (lsn <= from_lsn || lsn > splice_lsn) return;
          callback(ShippedRecord{lsn, frame});
          served_upto = lsn;
        });
    if (info.base_lsn > from_lsn) {
      throw std::runtime_error(
          "LogShipper: records before the WAL base LSN were compacted away; "
          "bootstrap the replica from a snapshot instead");
    }
    if (served_upto < splice_lsn) {
      throw std::runtime_error(
          "LogShipper: WAL ends before the live stream's splice point");
    }
    from_disk = served_upto - from_lsn;
    // Drain what the live stream buffered meanwhile, outside the lock, until
    // a check under the lock finds the buffer empty and flips the entry
    // live — the next commit then reaches the callback directly.
    for (;;) {
      std::vector<ShippedRecord> batch;
      {
        std::lock_guard lock(mu_);
        Subscriber& sub = subscribers_.at(id);
        if (sub.pending.empty()) {
          sub.callback = std::move(callback);
          sub.live = true;
          catchup_ += from_disk + buffered;
          disk_ += from_disk;
          break;
        }
        batch.swap(sub.pending);
      }
      for (const ShippedRecord& rec : batch) callback(rec);
      buffered += batch.size();
    }
  } catch (...) {
    std::lock_guard lock(mu_);
    subscribers_.erase(id);
    throw;
  }
  emit_catchup(event_component_, "disk", from_lsn, from_disk);
  if (buffered > 0) {
    emit_catchup(event_component_, "buffer", splice_lsn, buffered);
  }
  return id;
}

void LogShipper::unsubscribe(std::uint64_t id) {
  std::lock_guard lock(mu_);
  subscribers_.erase(id);
}

LogShipper::Stats LogShipper::stats() const {
  std::lock_guard lock(mu_);
  Stats out;
  out.shipped_records = shipped_;
  out.catchup_records = catchup_;
  out.disk_records = disk_;
  out.subscribers = subscribers_.size();
  return out;
}

}  // namespace cpkcore::cluster
