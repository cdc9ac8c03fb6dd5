// The one bounded overwrite ring: per-process forensic timelines
// (core::AnalysisEngine), the daemon's event journal and the span
// tracer's shards. It grows to its capacity, then overwrites the oldest
// entry in place. Every push gets an index (its cursor): 0 first, then
// counting up for the ring's life, never reused, so a reader holding an
// index knows exactly how many entries it missed. recorded() counts
// every push, dropped() the overwritten ones; the oldest retained
// entry's index is dropped(). Capacity 0 records nothing. No locking:
// each owner guards its ring with its own lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace cryptodrop::common {

/// Fixed-capacity overwrite ring with monotonic indices (file comment).
template <typename T>
class BoundedRing {
 public:
  /// Oldest-first iterator over the retained entries (for range-for).
  class const_iterator {
   public:
    /// The iterator at oldest-first position `pos` of `ring`.
    const_iterator(const BoundedRing& ring, std::size_t pos) : ring_(&ring), pos_(pos) {}
    /// The entry at this position.
    const T& operator*() const { return (*ring_)[pos_]; }
    /// Advances to the next-newer entry.
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    /// Same position (both iterators must come from one ring).
    bool operator==(const const_iterator& other) const { return pos_ == other.pos_; }

   private:
    const BoundedRing* ring_;
    std::size_t pos_;
  };

  /// A capacity-0 ring: records nothing until assigned a sized ring.
  BoundedRing() = default;
  /// A ring retaining at most `capacity` entries (0 = record nothing).
  /// Storage grows with use, up to `capacity` entries.
  explicit BoundedRing(std::size_t capacity) : capacity_(capacity) {}

  /// Appends `value`, overwriting the oldest entry when the ring is
  /// full, and returns the entry's index. At capacity 0 nothing is
  /// stored or counted and the return value is recorded().
  std::uint64_t push(T value) {
    if (capacity_ == 0) return recorded_;
    if (entries_.size() < capacity_) {
      entries_.push_back(std::move(value));
    } else {
      entries_[head_] = std::move(value);
      head_ = (head_ + 1) % capacity_;
    }
    return recorded_++;
  }

  /// The `i`-th oldest retained entry; requires i < size().
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return entries_[(head_ + i) % entries_.size()];
  }

  /// Iterator at the oldest retained entry.
  [[nodiscard]] const_iterator begin() const { return const_iterator(*this, 0); }
  /// Iterator one past the newest retained entry.
  [[nodiscard]] const_iterator end() const { return const_iterator(*this, size()); }

  /// Entries currently retained (<= capacity()).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// The fixed capacity this ring was constructed with.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Entries ever pushed (== the index the next push will get).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Entries overwritten so far (== the oldest retained entry's index).
  [[nodiscard]] std::uint64_t dropped() const { return recorded_ - entries_.size(); }

 private:
  std::size_t capacity_ = 0;
  std::vector<T> entries_;  ///< Circular once full; head_ is the oldest.
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
};

}  // namespace cryptodrop::common
