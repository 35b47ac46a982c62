// EventLog — the structured event journal of the health plane.
//
// Metrics answer "how much / how fast"; the event journal answers "what
// happened and when": discrete state transitions — WAL compaction and
// durability failures, checkpoint begin/end, replica catch-up sources,
// apply-thread errors — as structured records
// (severity, component, name, key/value fields, monotonic seq) instead of
// printf lines. Events are *rare* by design; the hot path never emits.
//
//   emit site ──emit(sev, component, name, fields)──▶ EventLog
//       │                                               │ in-memory ring
//       │                                               │ (bounded, newest
//       │                                               │  overwrite oldest)
//       │                                               ├─▶ JSON-lines sink
//       │                                               └─▶ subscribers
//       └ rate limit: per (component, name) token window; suppressed
//         events are counted and surface on the key's next allowed event
//
// Emit sites use the process-wide instance() directly (like the trace
// plane) so no EventLog* threads through every constructor; tests build
// private instances. Subscribers run on the emitting thread under the
// journal lock and MUST NOT emit events or call back into the emitter.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace cpkcore::obs {

enum class Severity { kDebug, kInfo, kWarn, kError };

[[nodiscard]] const char* severity_name(Severity s);

/// One journal record. Fields are ordered key/value string pairs (emit
/// sites std::to_string numbers; order is preserved in exports).
struct Event {
  std::uint64_t seq = 0;           ///< monotone per-journal sequence
  std::uint64_t wall_unix_ms = 0;  ///< system clock at emit
  std::uint64_t mono_ns = 0;       ///< steady clock at emit
  Severity severity = Severity::kInfo;
  std::string component;  ///< emitting component ("p0.service", "wal", ...)
  std::string name;       ///< event kind ("checkpoint_begin", ...)
  std::vector<std::pair<std::string, std::string>> fields;

  /// {"seq":..,"ts_ms":..,"severity":"..","component":"..","event":"..,
  ///  "fields":{...}}
  [[nodiscard]] std::string to_json() const;
};

struct EventLogOptions {
  /// Ring capacity in events; the newest event overwrites the oldest once
  /// full (overwrites are counted, never silent).
  std::size_t capacity = 1024;

  /// Per-(component, name) rate limit: at most `rate_limit_burst` events
  /// per window; the rest are suppressed (counted; the key's next allowed
  /// event carries a "suppressed" field). 0 ms disables limiting.
  std::uint64_t rate_limit_window_ms = 1000;
  std::uint64_t rate_limit_burst = 8;

  /// Optional JSON-lines sink: every admitted event is appended (and
  /// flushed) as one line. Empty = in-memory only.
  std::string json_path;
};

class EventLog {
 public:
  /// The process-wide journal every instrumented layer emits to (the
  /// analogue of MetricsRegistry::instance()).
  static EventLog& instance();

  using Fields = std::vector<std::pair<std::string, std::string>>;
  using Subscriber = std::function<void(const Event&)>;

  /// Opens the JSON sink (if configured) and stands the ring up. Throws
  /// std::runtime_error when json_path cannot be opened.
  explicit EventLog(EventLogOptions options = {});
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Appends one event (thread-safe). Rate-limited per (component, name);
  /// suppressed events only bump a counter. Subscribers run inline under
  /// the journal lock — they must not emit or block.
  void emit(Severity severity, std::string component, std::string name,
            Fields fields = {});

  /// The newest `n` events, oldest first.
  [[nodiscard]] std::vector<Event> tail(std::size_t n) const;

  /// The newest `n` events as a JSON array (oldest first).
  [[nodiscard]] std::string tail_json(std::size_t n) const;

  /// Registers a subscriber; returns an id for unsubscribe().
  std::uint64_t subscribe(Subscriber fn);

  /// After return the callback will not run again (emit holds the lock
  /// across delivery).
  void unsubscribe(std::uint64_t id);

  struct Stats {
    std::uint64_t emitted = 0;      ///< admitted to the ring
    std::uint64_t overwritten = 0;  ///< evicted by ring wraparound
    std::uint64_t suppressed = 0;   ///< dropped by the rate limiter
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::size_t capacity() const { return options_.capacity; }

 private:
  struct RateState {
    std::uint64_t window_start_ns = 0;
    std::uint64_t in_window = 0;   ///< admitted this window
    std::uint64_t suppressed = 0;  ///< pending "suppressed" annotation
  };

  EventLogOptions options_;
  std::FILE* sink_ = nullptr;

  mutable std::mutex mu_;
  std::vector<Event> ring_;    // under mu_; ring_[seq % capacity]
  std::uint64_t next_seq_ = 0;  // under mu_
  Stats stats_{};               // under mu_
  std::unordered_map<std::string, RateState> rate_;  // under mu_
  std::vector<std::pair<std::uint64_t, Subscriber>> subscribers_;  // mu_
  std::uint64_t next_subscriber_id_ = 1;  // under mu_
};

}  // namespace cpkcore::obs
