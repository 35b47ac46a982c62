#include "obs/health.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/event_log.hpp"

namespace cpkcore::obs {

namespace {

std::string format_value(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

HealthState worse(HealthState a, HealthState b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

}  // namespace

const char* health_state_name(HealthState s) {
  switch (s) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kStalled:
      return "stalled";
  }
  return "unknown";
}

std::uint64_t HealthMonitor::Component::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

HealthMonitor::HealthMonitor(Options options) : options_(options) {
  if (options_.heartbeat_interval_ms == 0) options_.heartbeat_interval_ms = 1;
  if (options_.stalled_after_intervals < options_.degraded_after_intervals) {
    options_.stalled_after_intervals = options_.degraded_after_intervals;
  }
  if (options_.start_thread) thread_ = std::thread([this] { run(); });
}

HealthMonitor::~HealthMonitor() {
  {
    std::lock_guard lock(mu_);
    stop_requested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

HealthMonitor::Component* HealthMonitor::register_thread(std::string name,
                                                         int partition) {
  auto c = std::make_unique<Component>();
  c->name_ = std::move(name);
  c->partition_ = partition;
  c->last_beat_ns_.store(Component::now_ns(), std::memory_order_relaxed);
  Component* out = c.get();
  std::lock_guard lock(mu_);
  components_.push_back(std::move(c));
  return out;
}

HealthMonitor::Component* HealthMonitor::register_probe(
    std::string name, int partition, std::function<double()> value) {
  auto c = std::make_unique<Component>();
  c->name_ = std::move(name);
  c->partition_ = partition;
  c->is_probe_ = true;
  c->probe_ = std::move(value);
  Component* out = c.get();
  std::lock_guard lock(mu_);
  components_.push_back(std::move(c));
  return out;
}

void HealthMonitor::unregister(Component* component) {
  if (component == nullptr) return;
  std::lock_guard lock(mu_);
  component->active_.store(false, std::memory_order_release);
  component->probe_ = nullptr;  // never sampled again; owner may die now
  component->state_.store(static_cast<int>(HealthState::kHealthy),
                          std::memory_order_relaxed);
}

HealthMonitor::Rollup HealthMonitor::evaluate_locked() {
  const double interval_ms =
      static_cast<double>(options_.heartbeat_interval_ms);
  const std::uint64_t now = Component::now_ns();
  Rollup out;
  for (const auto& cp : components_) {
    Component& c = *cp;
    if (!c.active_.load(std::memory_order_acquire)) continue;
    ComponentStatus status;
    status.name = c.name_;
    status.partition = c.partition_;
    status.is_probe = c.is_probe_;
    HealthState state = HealthState::kHealthy;
    if (c.is_probe_) {
      // Report-only: the sample shows in the rollup, the state stays
      // healthy.
      status.value = c.probe_ ? c.probe_() : 0.0;
    } else {
      const bool idle = c.idle_.load(std::memory_order_relaxed);
      const std::uint64_t beat =
          c.last_beat_ns_.load(std::memory_order_relaxed);
      const double age_ms =
          beat >= now ? 0.0 : static_cast<double>(now - beat) / 1e6;
      status.idle = idle;
      status.beat_age_ms = age_ms;
      if (!idle) {
        const double intervals = age_ms / interval_ms;
        if (intervals > options_.stalled_after_intervals) {
          state = HealthState::kStalled;
        } else if (intervals > options_.degraded_after_intervals) {
          state = HealthState::kDegraded;
        }
      }
    }
    status.state = state;
    c.state_.store(static_cast<int>(state), std::memory_order_relaxed);
    out.overall = worse(out.overall, state);
    if (c.partition_ >= 0) {
      const auto p = static_cast<std::size_t>(c.partition_);
      if (out.partitions.size() <= p) {
        out.partitions.resize(p + 1, HealthState::kHealthy);
      }
      out.partitions[p] = worse(out.partitions[p], state);
    }
    out.components.push_back(std::move(status));
  }
  return out;
}

HealthMonitor::Rollup HealthMonitor::check_now() {
  struct Transition {
    std::string name;
    int partition;
    HealthState from, to;
    double beat_age_ms;
  };
  std::vector<Transition> transitions;
  Rollup out;
  {
    std::lock_guard lock(mu_);
    // Snapshot prior cached states to detect transitions.
    std::vector<std::pair<Component*, HealthState>> before;
    before.reserve(components_.size());
    for (const auto& cp : components_) {
      before.emplace_back(cp.get(), cp->state());
    }
    out = evaluate_locked();
    // Only thread components change state (probes are report-only).
    for (const auto& [c, prior] : before) {
      if (!c->active_.load(std::memory_order_acquire)) continue;
      const HealthState now_state = c->state();
      if (now_state == prior) continue;
      double age_ms = 0.0;
      for (const ComponentStatus& s : out.components) {
        if (s.name == c->name_) {
          age_ms = s.beat_age_ms;
          break;
        }
      }
      transitions.push_back(
          {c->name_, c->partition_, prior, now_state, age_ms});
    }
    last_rollup_ = out;
  }
  // Emit outside mu_: EventLog takes its own lock and subscribers run
  // inline there — holding the monitor lock across that invites
  // inversion.
  EventLog& log =
      options_.events != nullptr ? *options_.events : EventLog::instance();
  for (const Transition& t : transitions) {
    const Severity sev = t.to == HealthState::kStalled ? Severity::kError
                         : t.to == HealthState::kDegraded ? Severity::kWarn
                                                          : Severity::kInfo;
    EventLog::Fields fields = {
        {"from", health_state_name(t.from)},
        {"to", health_state_name(t.to)},
        {"beat_age_ms", format_value(t.beat_age_ms)},
    };
    if (t.partition >= 0) {
      fields.emplace_back("partition", std::to_string(t.partition));
    }
    log.emit(sev, t.name, "health_transition", std::move(fields));
  }
  return out;
}

HealthMonitor::Rollup HealthMonitor::rollup() const {
  std::lock_guard lock(mu_);
  return last_rollup_;
}

void HealthMonitor::run() {
  // Check at twice the heartbeat cadence: with stalls flagged at
  // stalled_after_intervals (default 2), detection lands inside 2.5
  // intervals — within the 3-interval bound the tests pin.
  const auto period =
      std::chrono::milliseconds(std::max<std::uint64_t>(
          1, options_.heartbeat_interval_ms / 2));
  std::unique_lock lock(mu_);
  while (!stop_requested_) {
    cv_.wait_for(lock, period, [&] { return stop_requested_; });
    if (stop_requested_) break;
    lock.unlock();
    check_now();
    lock.lock();
  }
}

std::string HealthMonitor::Rollup::to_json() const {
  std::string out = "{\"status\":\"";
  out += overall == HealthState::kHealthy ? "ok"
                                          : health_state_name(overall);
  out += "\",\"partitions\":[";
  for (std::size_t p = 0; p < partitions.size(); ++p) {
    if (p > 0) out += ",";
    out += "\"";
    out += health_state_name(partitions[p]);
    out += "\"";
  }
  out += "],\"components\":[";
  for (std::size_t i = 0; i < components.size(); ++i) {
    const ComponentStatus& c = components[i];
    if (i > 0) out += ",";
    out += "{\"name\":\"";
    out += c.name;
    out += "\",\"state\":\"";
    out += health_state_name(c.state);
    out += "\"";
    if (c.partition >= 0) {
      out += ",\"partition\":";
      out += std::to_string(c.partition);
    }
    if (c.is_probe) {
      out += ",\"value\":";
      out += format_value(c.value);
    } else {
      out += ",\"idle\":";
      out += c.idle ? "true" : "false";
      out += ",\"beat_age_ms\":";
      out += format_value(c.beat_age_ms);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace cpkcore::obs
