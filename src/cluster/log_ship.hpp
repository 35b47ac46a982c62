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
// committed, shared by pointer from the apply thread's single encode. Disk
// catch-up lifts frames straight off the v4 log without decoding
// (scan_wal_frames), and each replica decodes a frame's payload exactly
// once on its own apply thread. Nothing between the group commit and the
// replica apply re-serializes.
//
//   primary apply thread ──commit listener──▶ LogShipper ──▶ subscriber 0
//                                               │            subscriber 1
//                                               ▼            ...
//                                  joiner's splice buffer
//                                  (drained after the joiner's
//                                   catch-up from the on-disk WAL)
//
// Late joiners: the primary's on-disk WAL is the only catch-up source; the
// shipper keeps no copy of records it already shipped. subscribe(from_lsn)
// behind the stream registers a not-yet-live entry (the live stream buffers
// its records from then on), replays (from_lsn, registration] off the WAL,
// then drains that buffer and goes live — no gap, no duplicate.
// Records older than the WAL's base LSN were compacted away by a
// checkpoint; a joiner that needs them must bootstrap from a snapshot
// instead (throws), as must any joiner behind a primary with no WAL.
//
// Lifetime: construct after the primary, destroy (or detach()) before it.
// Live subscriber callbacks run under the shipper lock on the primary's
// apply thread — or, when the primary ships at the durable point
// (ServiceConfig::ship_at = kDurable with a WAL), on the WAL flusher
// thread. Either way they must be fast
// (enqueue-and-return, as Replica does) and must not call back into the
// shipper or the primary. Catch-up deliveries run on the subscribing thread
// with no shipper lock held.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "graph/batch.hpp"
#include "service/kcore_service.hpp"

namespace cpkcore::cluster {

/// One committed batch as shipped to subscribers: the encoded frame the
/// primary's WAL committed, shared — not copied — so one record fans out to
/// every subscriber without duplicating bytes on the primary's commit
/// path. Consumers call frame->decode_batch() exactly once
/// (or frame->bytes() to forward the wire form untouched).
struct ShippedRecord {
  std::uint64_t lsn = 0;
  service::WalFramePtr frame;
};

class LogShipper {
 public:
  struct Stats {
    std::uint64_t shipped_records = 0;   ///< live records fanned out
    std::uint64_t catchup_records = 0;   ///< records served during catch-up
    std::uint64_t disk_records = 0;      ///< ... of which read from the WAL
    std::size_t subscribers = 0;  ///< including joiners still catching up
  };

  /// Attaches to the primary's commit stream. Records committed before
  /// attachment are reachable only through the WAL catch-up path.
  /// `event_component` names the journal component of catch-up source
  /// events ("served N records from the on-disk WAL / the splice
  /// buffer"); a ShardGroup names its shippers per partition ("p0.ship").
  explicit LogShipper(service::KCoreService& primary,
                      std::string event_component = "ship");
  ~LogShipper() { detach(); }

  LogShipper(const LogShipper&) = delete;
  LogShipper& operator=(const LogShipper&) = delete;

  using Callback = std::function<void(const ShippedRecord&)>;

  /// Delivers every committed record with LSN > from_lsn (catch-up), then
  /// registers the callback for the live stream; the two phases splice
  /// without gap or duplicate. Catch-up runs on the calling thread with no
  /// shipper lock held, so the callback may even submit to the primary
  /// there. Returns the subscription id. Throws std::runtime_error, leaving
  /// nothing registered, when the missed records are not on disk (no WAL
  /// configured, or they predate the WAL's base LSN — bootstrap from a
  /// snapshot instead).
  std::uint64_t subscribe(std::uint64_t from_lsn, Callback callback);

  /// Stops delivery to `id`. After return, no further callback runs.
  void unsubscribe(std::uint64_t id);

  /// Unhooks from the primary (idempotent; the destructor calls it). Must
  /// run while the primary is still alive.
  void detach();

  [[nodiscard]] Stats stats() const;

 private:
  /// A subscription. A joiner behind the stream is registered not-yet-live:
  /// on_commit buffers its records in `pending` until subscribe() has
  /// replayed the WAL up to the registration point and drained the buffer.
  struct Subscriber {
    Callback callback;  ///< set when the entry goes live
    std::vector<ShippedRecord> pending;
    bool live = false;
  };

  void on_commit(const service::WalFramePtr& frame);

  service::KCoreService& primary_;
  std::string event_component_;
  std::string wal_path_;     ///< catch-up source ("" = none)
  vertex_t num_vertices_ = 0;
  bool attached_ = false;

  mutable std::mutex mu_;
  std::map<std::uint64_t, Subscriber> subscribers_;  // under mu_
  std::uint64_t next_id_ = 1;                   // under mu_
  std::uint64_t last_lsn_ = 0;                  // under mu_
  bool cursor_seeded_ = false;                  // under mu_ (see ctor)
  std::uint64_t shipped_ = 0;                   // under mu_
  std::uint64_t catchup_ = 0;                   // under mu_
  std::uint64_t disk_ = 0;                      // under mu_
};

}  // namespace cpkcore::cluster
