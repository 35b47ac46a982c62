// TraceRecorder — cross-thread pipeline tracing for the flight recorder.
//
// Low-overhead per-thread ring buffers of fixed-size events (the cxxtrace
// shape: each thread appends to its own ring, a collector walks all rings),
// exported as Chrome trace-event JSON loadable in Perfetto / about:tracing.
// Wraparound keeps memory bounded on long runs: each ring holds the most
// recent CPKC_TRACE_BUF events per thread and counts what it dropped.
//
// Correlation: every event carries an `id` — the pipeline stamps the LSN —
// so one logical write can be followed across the apply thread, the WAL
// flusher thread, the shipper, and each replica's apply thread (in
// Perfetto, select an event and query/filter args.lsn). Async phases
// ('b'/'e' with the LSN as the async id) additionally draw one commit span
// that *starts* on the apply thread and *ends* on the WAL flusher thread.
//
// Gating:
//  * Runtime: off unless the CPKC_TRACE environment variable is set to a
//    non-zero value (or trace_set_enabled(true) was called). When off, each
//    instrumentation site costs one relaxed atomic load.
//  * Compile time: building with -DCPKC_TRACE_DISABLED compiles every
//    CPKC_TRACE_* macro to nothing (the CMake option CPKC_TRACE=OFF sets
//    it), for proving the instrumentation itself costs nothing.
//
// Threading: recording is wait-free against other recorders (each thread
// owns its ring; the ring's mutex is contended only by a concurrent
// exporter). Export (trace_chrome_json) may run at any time, including
// while other threads record.
#pragma once

#include <cstdint>
#include <string>

namespace cpkcore::obs {

/// Chrome trace-event phases used by the recorder.
///   'X' complete (span with duration)   'i' instant
///   'b' async begin                     'e' async end (same id matches)
struct TraceEvent {
  std::uint64_t ts_ns = 0;   ///< steady-clock timestamp (span start)
  std::uint64_t dur_ns = 0;  ///< 'X' only
  std::uint64_t id = 0;      ///< correlation id (the pipeline stamps LSNs)
  std::uint64_t arg = 0;     ///< free-form payload (ops, bytes, ...)
  const char* name = nullptr;  ///< must be a string literal / static
  char phase = 'i';
};

/// Whether recording is on (CPKC_TRACE env, overridable below).
[[nodiscard]] bool trace_enabled();

/// Overrides the CPKC_TRACE env gate (tests, CLI flags).
void trace_set_enabled(bool enabled);

/// Sets the per-thread ring capacity (events) for rings created *after*
/// this call; existing rings keep theirs. Also settable via CPKC_TRACE_BUF.
void trace_set_ring_capacity(std::size_t events);

/// Names the calling thread in the exported trace (Chrome thread_name
/// metadata). Safe to call whether or not tracing is enabled.
void trace_set_thread_name(const std::string& name);

/// Records one event on the calling thread's ring (no-op when disabled).
void trace_record(const TraceEvent& event);

void trace_instant(const char* name, std::uint64_t id = 0,
                   std::uint64_t arg = 0);
void trace_async_begin(const char* name, std::uint64_t id,
                       std::uint64_t arg = 0);
void trace_async_end(const char* name, std::uint64_t id,
                     std::uint64_t arg = 0);

/// RAII span: records a complete ('X') event covering its lifetime.
/// The enabled check happens once, at construction.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::uint64_t id = 0,
                     std::uint64_t arg = 0);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Updates the payload arg before the span closes (e.g. a result count
  /// unknown at entry).
  void set_arg(std::uint64_t arg) { event_.arg = arg; }

 private:
  TraceEvent event_;
  bool armed_ = false;
};

/// Collected recorder state (trace_stats()).
struct TraceStats {
  std::size_t threads = 0;         ///< rings ever created
  std::uint64_t recorded = 0;      ///< events recorded (incl. overwritten)
  std::uint64_t retained = 0;      ///< events currently in the rings
  std::uint64_t dropped = 0;       ///< events lost to ring wraparound
};
[[nodiscard]] TraceStats trace_stats();

/// Serializes every ring into one Chrome trace-event JSON document
/// ({"traceEvents":[...]}, events sorted by timestamp, thread-name
/// metadata included). Safe while other threads keep recording.
[[nodiscard]] std::string trace_chrome_json();

/// trace_chrome_json() to a file; false on IO failure.
bool trace_write_chrome_json(const std::string& path);

/// Empties every ring (tests / phase isolation). Threads keep recording
/// into their existing rings afterwards.
void trace_clear();

}  // namespace cpkcore::obs

// Instrumentation macros — compile to nothing under CPKC_TRACE_DISABLED.
#ifdef CPKC_TRACE_DISABLED
#define CPKC_TRACE_SPAN(var, name, id, arg)
#define CPKC_TRACE_INSTANT(name, id, arg)
#define CPKC_TRACE_ASYNC_BEGIN(name, id, arg)
#define CPKC_TRACE_ASYNC_END(name, id, arg)
#define CPKC_TRACE_THREAD_NAME(name)
#else
#define CPKC_TRACE_SPAN(var, name, id, arg) \
  ::cpkcore::obs::TraceSpan var((name), (id), (arg))
#define CPKC_TRACE_INSTANT(name, id, arg) \
  ::cpkcore::obs::trace_instant((name), (id), (arg))
#define CPKC_TRACE_ASYNC_BEGIN(name, id, arg) \
  ::cpkcore::obs::trace_async_begin((name), (id), (arg))
#define CPKC_TRACE_ASYNC_END(name, id, arg) \
  ::cpkcore::obs::trace_async_end((name), (id), (arg))
#define CPKC_TRACE_THREAD_NAME(name) \
  ::cpkcore::obs::trace_set_thread_name(name)
#endif
