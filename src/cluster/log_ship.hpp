// Log shipping — the replication transport of the read-scaling cluster.
//
// A LogShipper taps the primary KCoreService's group-commit path (via
// KCoreService::set_commit_listener) and fans every committed record out to
// its subscribers, in strictly increasing LSN order with no gaps. Because
// batch application to the level data structure is deterministic given the
// committed batch stream, a subscriber that applies the stream to its own
// CPLDS is an *exact* replica, not an approximation.
//
// What travels is the *encoded* WalFrame — the same bytes the primary's WAL
// committed, shared by pointer from the apply thread's single encode. The
// retention ring holds frames, disk catch-up lifts frames straight off the
// v4 log without decoding (scan_wal_frames), and each replica decodes a
// frame's payload exactly once on its own apply thread. Nothing between the
// group commit and the replica apply re-serializes.
//
//   primary apply thread ──commit listener──▶ LogShipper ──▶ subscriber 0
//                                               │   ▲        subscriber 1
//                                   retained ◀──┘   │        ...
//                                   ring            └── catch-up: on-disk WAL
//
// Late joiners: subscribe(from_lsn) first replays every record the
// subscriber missed — from the in-memory retention ring when it still holds
// them, else from the primary's on-disk WAL (scan_wal) — and then splices
// the subscriber into the live stream with no gap and no duplicate. Records
// older than the WAL's base LSN were compacted away by a checkpoint; a
// joiner that needs them must bootstrap from a snapshot instead (throws).
//
// Lifetime: construct after the primary, destroy (or detach()) before it.
// Subscriber callbacks run under the shipper lock on the primary's apply
// thread — or, when the primary ships at the durable point
// (ServiceConfig::ship_at = kDurable with a WAL), on the WAL flusher
// thread. Either way they must be fast
// (enqueue-and-return, as Replica does) and must not call back into the
// shipper or the primary.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "graph/batch.hpp"
#include "service/kcore_service.hpp"

namespace cpkcore::cluster {

/// One committed batch as shipped to subscribers: the encoded frame the
/// primary's WAL committed, shared — not copied — so one record fans out to
/// the retention ring and every subscriber without duplicating bytes on the
/// primary's commit path. Consumers call frame->decode_batch() exactly once
/// (or frame->bytes() to forward the wire form untouched).
struct ShippedRecord {
  std::uint64_t lsn = 0;
  service::WalFramePtr frame;
};

class LogShipper {
 public:
  struct Options {
    /// In-memory retention ring size. Records evicted from the ring are
    /// still reachable through the primary's on-disk WAL (when one is
    /// configured); with no WAL, keep this unbounded or late joiners past
    /// the ring will fail to subscribe. Degenerate but allowed: 0 keeps
    /// nothing, so a subscriber behind the live stream can only splice in
    /// (via repeated full-WAL scans) once the primary pauses committing —
    /// use at least a small ring when joiners must land under write load.
    std::size_t retain_records = std::numeric_limits<std::size_t>::max();

    /// Event-journal component for catch-up source events ("served N
    /// records from the ring / from the on-disk WAL"); a ShardGroup names
    /// its shippers per partition ("p0.ship").
    std::string event_component = "ship";
  };

  struct Stats {
    std::uint64_t shipped_records = 0;   ///< live records fanned out
    std::uint64_t catchup_records = 0;   ///< records served during catch-up
    std::uint64_t disk_records = 0;      ///< ... of which read from the WAL
    std::size_t retained = 0;            ///< current ring occupancy
    std::size_t retained_peak = 0;       ///< high-water ring occupancy
    std::size_t retain_capacity = 0;     ///< configured ring capacity
    std::size_t subscribers = 0;
  };

  /// Attaches to the primary's commit stream. Records committed before
  /// attachment are reachable only through the WAL catch-up path.
  explicit LogShipper(service::KCoreService& primary);
  LogShipper(service::KCoreService& primary, Options options);
  ~LogShipper() { detach(); }

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  using Callback = std::function<void(const ShippedRecord&)>;

  /// Delivers every committed record with LSN > from_lsn (catch-up), then
  /// registers the callback for the live stream; the two phases splice
  /// without gap or duplicate. Returns the subscription id. Throws
  /// std::runtime_error when the missed records are reachable neither from
  /// the retention ring nor from the WAL (no WAL configured, or the records
  /// predate the WAL's base LSN — bootstrap from a snapshot instead).
  std::uint64_t subscribe(std::uint64_t from_lsn, Callback callback);

  /// Stops delivery to `id`. After return, no further callback runs.
  void unsubscribe(std::uint64_t id);

  /// Unhooks from the primary (idempotent; the destructor calls it). Must
  /// run while the primary is still alive.
  void detach();

  /// LSN of the last record shipped (or known committed at attach time).
  [[nodiscard]] std::uint64_t last_shipped_lsn() const;

  [[nodiscard]] Stats stats() const;

 private:
  void on_commit(const service::WalFramePtr& frame);

  service::KCoreService& primary_;
  Options options_;
  std::string wal_path_;     ///< catch-up source ("" = none)
  vertex_t num_vertices_ = 0;
  bool attached_ = false;

  mutable std::mutex mu_;
  std::deque<ShippedRecord> retained_;          // under mu_
  std::map<std::uint64_t, Callback> subscribers_;  // under mu_
  std::uint64_t next_id_ = 1;                   // under mu_
  std::uint64_t last_lsn_ = 0;                  // under mu_
  bool cursor_seeded_ = false;                  // under mu_ (see ctor)
  std::uint64_t shipped_ = 0;                   // under mu_
  std::uint64_t catchup_ = 0;                   // under mu_
  std::uint64_t disk_ = 0;                      // under mu_
  std::size_t retained_peak_ = 0;               // under mu_
};

}  // namespace cpkcore::cluster
