#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mebl::detail {

/// Membership set over grid-node indices, one bit per node.
///
/// Replaces unordered_set<std::size_t> on the detailed-routing hot paths:
/// test() is one word load instead of a hash probe, and the whole set costs
/// index_space / 8 bytes, sized once by reset().
class NodeBitmap {
 public:
  NodeBitmap() = default;
  explicit NodeBitmap(std::size_t size) { reset(size); }

  /// Size the set to `size` nodes and empty it.
  void reset(std::size_t size) {
    words_.assign((size + kWordBits - 1) / kWordBits, 0);
    size_ = size;
    count_ = 0;
  }

  void set(std::size_t index) {
    std::uint64_t& word = words_[index / kWordBits];
    const std::uint64_t bit = mask(index);
    if ((word & bit) == 0) {
      word |= bit;
      ++count_;
    }
  }

  /// Remove one member; no-op when absent or out of range.
  void unset(std::size_t index) {
    if (!test(index)) return;
    words_[index / kWordBits] &= ~mask(index);
    --count_;
  }

  /// Out-of-range indices read as not-set, so an unsized bitmap behaves
  /// like an empty set (matching the unordered_set it replaced).
  [[nodiscard]] bool test(std::size_t index) const {
    return index < size_ && (words_[index / kWordBits] & mask(index)) != 0;
  }

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Heap bytes of the bit storage.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::size_t kWordBits = 64;
  static std::uint64_t mask(std::size_t index) noexcept {
    return std::uint64_t{1} << (index % kWordBits);
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
  std::size_t count_ = 0;
};

}  // namespace mebl::detail
