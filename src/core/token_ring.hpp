// Fixed-capacity ring of words — one shell input's FIFO.
//
// The ring holds no storage of its own: it is a window of `capacity` words
// in a word pool that the Network allocates once for every input of every
// shell, so all FIFOs of a network lie in one contiguous array. push/pop
// are index arithmetic over that window, and a token is never moved after
// it is written, so the token path allocates nothing. It holds bare words:
// a shell's FIFO always holds consecutive tags, so tags are rebuilt from
// the shell's counters instead of being stored beside each token.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/token.hpp"
#include "util/assert.hpp"

namespace wp {

class TokenRing {
 public:
  /// The window pool[base, base + capacity). Starts empty.
  TokenRing(std::size_t base, std::size_t capacity)
      : base_(base), capacity_(static_cast<std::uint32_t>(capacity)) {
    WP_REQUIRE(capacity >= 1 && capacity <= UINT32_MAX / 2,
               "token ring capacity must be in [1, 2^31)");
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == capacity_; }

  Word front(const Word* pool) const {
    WP_CHECK(size_ > 0, "front() on an empty token ring");
    return pool[base_ + head_];
  }

  void push_back(Word* pool, Word value) {
    WP_CHECK(size_ < capacity_, "token ring overflow");
    const std::uint32_t i = head_ + size_;
    pool[base_ + (i >= capacity_ ? i - capacity_ : i)] = value;
    ++size_;
  }

  void pop_front() {
    WP_CHECK(size_ > 0, "pop_front() on an empty token ring");
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    --size_;
  }

 private:
  std::size_t base_ = 0;
  std::uint32_t capacity_ = 0;
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

}  // namespace wp
