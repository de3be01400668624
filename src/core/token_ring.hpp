// Fixed-capacity ring of words — the shells' input FIFO.
//
// The ring allocates its storage once, at capacity, when the shell is
// built; push/pop are index arithmetic, and a token is never moved after
// it is written, so the token path allocates nothing. It holds bare words:
// a shell's FIFO always holds consecutive tags, so tags are rebuilt from
// the shell's counters instead of being stored beside each token.
#pragma once

#include <cstddef>
#include <vector>

#include "core/token.hpp"
#include "util/assert.hpp"

namespace wp {

class TokenRing {
 public:
  TokenRing() = default;

  /// Allocates storage for exactly `capacity` words (the shell's FIFO
  /// bound). Called once at build time; clears any content.
  void set_capacity(std::size_t capacity) {
    WP_REQUIRE(capacity >= 1, "token ring capacity must be >= 1");
    buffer_.assign(capacity, kPoisonWord);
    head_ = 0;
    size_ = 0;
  }

  std::size_t capacity() const { return buffer_.size(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == buffer_.size(); }

  Word front() const {
    WP_CHECK(size_ > 0, "front() on an empty token ring");
    return buffer_[head_];
  }

  void push_back(Word value) {
    WP_CHECK(size_ < buffer_.size(), "token ring overflow");
    const std::size_t i = head_ + size_;
    buffer_[i >= buffer_.size() ? i - buffer_.size() : i] = value;
    ++size_;
  }

  void pop_front() {
    WP_CHECK(size_ > 0, "pop_front() on an empty token ring");
    head_ = head_ + 1 == buffer_.size() ? 0 : head_ + 1;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::vector<Word> buffer_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace wp
