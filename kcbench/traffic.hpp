// Seeded mixed-op traffic for the service workloads, with its own replay:
// the generator tracks which edges are present, so it only emits effective
// ops (insert an absent edge, delete a present one) and knows the edge set
// the program must end with.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace kcbench {

class MixedTraffic {
 public:
  MixedTraffic(cpkcore::vertex_t n, const std::vector<cpkcore::Edge>& preload,
               double delete_frac, std::uint64_t seed)
      : n_(n), delete_frac_(delete_frac), rng_(seed) {
    for (const auto& e : preload) {
      present_.insert(e.canonical().key());
      old_.push_back(e.canonical());
    }
  }

  /// The next op. About `delete_frac` of ops are deletes; two in three of
  /// those delete one of the last kRecent inserted edges ("moments
  /// earlier"), the rest a random preloaded edge.
  cpkcore::Update next() {
    using cpkcore::Update;
    using cpkcore::UpdateKind;
    if (rng_.next_double() < delete_frac_) {
      if (rng_.next_below(3) != 0) {
        for (int tries = 0; tries < 8 && !recent_.empty(); ++tries) {
          const auto e = recent_[rng_.next_below(recent_.size())];
          if (erase(e)) return Update{e, UpdateKind::kDelete};
        }
      }
      for (int tries = 0; tries < 64 && !old_.empty(); ++tries) {
        const auto e = old_[rng_.next_below(old_.size())];
        if (erase(e)) return Update{e, UpdateKind::kDelete};
      }
    }
    for (;;) {
      cpkcore::Edge e{static_cast<cpkcore::vertex_t>(rng_.next_below(n_)),
                      static_cast<cpkcore::vertex_t>(rng_.next_below(n_))};
      e = e.canonical();
      if (e.is_self_loop()) continue;
      if (!present_.insert(e.key()).second) continue;
      if (recent_.size() < kRecent) {
        recent_.push_back(e);
      } else {
        recent_[recent_next_++ % kRecent] = e;
      }
      return Update{e, UpdateKind::kInsert};
    }
  }

  /// Edges present after every op returned so far has been applied.
  [[nodiscard]] std::vector<cpkcore::Edge> present() const {
    std::vector<cpkcore::Edge> out;
    out.reserve(present_.size());
    for (const auto key : present_) {
      out.push_back({static_cast<cpkcore::vertex_t>(key >> 32),
                     static_cast<cpkcore::vertex_t>(key & 0xffffffffu)});
    }
    return out;
  }

 private:
  static constexpr std::size_t kRecent = 64;

  bool erase(const cpkcore::Edge& e) {
    return present_.erase(e.canonical().key()) > 0;
  }

  cpkcore::vertex_t n_;
  double delete_frac_;
  cpkcore::Xoshiro256 rng_;
  std::unordered_set<std::uint64_t> present_;
  std::vector<cpkcore::Edge> old_;
  std::vector<cpkcore::Edge> recent_;
  std::size_t recent_next_ = 0;
};

}  // namespace kcbench
