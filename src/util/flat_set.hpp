// Open-addressing hash set for integer keys with linear probing and
// backward-shift deletion (no tombstones). The default-constructed set holds
// no allocation.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace cpkcore {

/// Hash set of K (an unsigned integer type). `EmptyKey` must never be
/// inserted; it marks free slots.
template <class K, K EmptyKey>
class FlatSet {
 public:
  FlatSet() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Inserts key; returns true if newly inserted. Key must not be EmptyKey.
  bool insert(K key) {
    assert(key != EmptyKey);
    if (size_ + 1 > (slots_.size() * 7) / 8 || slots_.empty()) {
      grow();
    }
    std::size_t i = probe_start(key);
    while (slots_[i] != EmptyKey) {
      if (slots_[i] == key) return false;
      i = next(i);
    }
    slots_[i] = key;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(K key) const {
    if (slots_.empty()) return false;
    std::size_t i = probe_start(key);
    while (slots_[i] != EmptyKey) {
      if (slots_[i] == key) return true;
      i = next(i);
    }
    return false;
  }

  /// Erases key; returns true if it was present. Uses backward-shift
  /// deletion so probe sequences stay dense (no tombstone buildup).
  bool erase(K key) {
    if (slots_.empty()) return false;
    std::size_t i = probe_start(key);
    while (slots_[i] != EmptyKey) {
      if (slots_[i] == key) {
        backward_shift(i);
        --size_;
        return true;
      }
      i = next(i);
    }
    return false;
  }

  /// Invokes f(key) for each element (unspecified order).
  template <class F>
  void for_each(F&& f) const {
    for (K k : slots_) {
      if (k != EmptyKey) f(k);
    }
  }

  /// Copies elements into a vector (unspecified order).
  [[nodiscard]] std::vector<K> to_vector() const {
    std::vector<K> out;
    out.reserve(size_);
    for_each([&](K k) { out.push_back(k); });
    return out;
  }

 private:
  [[nodiscard]] std::size_t probe_start(K key) const {
    return static_cast<std::size_t>(hash64(key)) & (slots_.size() - 1);
  }

  [[nodiscard]] std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    const std::size_t new_cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<K> old = std::move(slots_);
    slots_.assign(new_cap, EmptyKey);
    size_ = 0;
    for (K k : old) {
      if (k == EmptyKey) continue;
      std::size_t i = probe_start(k);
      while (slots_[i] != EmptyKey) i = next(i);
      slots_[i] = k;
      ++size_;
    }
  }

  // Standard backward-shift: scan forward from the hole; any element whose
  // ideal slot is "at or before" the hole (cyclically) moves back into it.
  void backward_shift(std::size_t hole) {
    std::size_t i = next(hole);
    while (slots_[i] != EmptyKey) {
      const std::size_t ideal = probe_start(slots_[i]);
      // Does slot i's element probe through `hole`? True iff the cyclic
      // distance ideal->hole is <= ideal->i.
      const std::size_t mask = slots_.size() - 1;
      const std::size_t d_hole = (hole - ideal) & mask;
      const std::size_t d_i = (i - ideal) & mask;
      if (d_hole <= d_i) {
        slots_[hole] = slots_[i];
        hole = i;
      }
      i = next(i);
    }
    slots_[hole] = EmptyKey;
  }

  std::vector<K> slots_;
  std::size_t size_ = 0;
};

/// Convenience alias for vertex sets.
template <class K>
using IntSet = FlatSet<K, static_cast<K>(~K{0})>;

}  // namespace cpkcore
