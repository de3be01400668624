// Wire serialization primitives for the evaluation service.
//
// A tiny explicit-little-endian byte-stream format shared by the
// EvalRequest/EvalReply value types (src/eval) and the daemon frame
// protocol (src/svc): fixed-width integers in little-endian byte order
// whatever the host's (the format is an interchange format between
// processes, unlike the host-order golden-record files), each field moved
// as one word with one bounds check, doubles as IEEE-754 bit patterns,
// strings and containers length-prefixed. The Reader is bounds-checked
// and throws WireError on any violation — truncated input, a length
// prefix larger than the remaining bytes, trailing garbage — so a
// malformed payload can never crash a decoder, only fail it loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace wp::wire {

/// Thrown by Reader on malformed input (and by serializers asked to
/// encode a value the wire format cannot carry).
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends little-endian values to a growing byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v);                 ///< IEEE-754 bit pattern as u64
  void str(const std::string& s);     ///< u32 length + bytes
  void raw(const void* data, std::size_t size);

  std::string take() {
    buffer_.resize(size_);
    size_ = 0;
    return std::move(buffer_);
  }

 private:
  /// The next `n` bytes of the buffer, counted as written. Inline, so a
  /// field costs a compare and a few stores rather than an out-of-line
  /// std::string::append.
  char* claim(std::size_t n) {
    if (buffer_.size() - size_ < n) grow(n);
    char* out = &buffer_[size_];
    size_ += n;
    return out;
  }
  void grow(std::size_t n);

  /// One word's bytes, least significant first.
  template <class U>
  void put(U v) {
    static_assert(std::is_unsigned_v<U>);
    char* out = claim(sizeof(U));
    for (std::size_t i = 0; i < sizeof(U); ++i)
      out[i] = static_cast<char>(v >> (8 * i));
  }

  /// The whole of buffer_ is room; its first size_ bytes are written.
  std::string buffer_;
  std::size_t size_ = 0;
};

/// Bounds-checked sequential reader over a byte buffer. Non-owning: the
/// buffer must outlive the reader.
class Reader {
 public:
  Reader(const void* data, std::size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit Reader(const std::string& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b();           ///< strict: only 0/1 are valid encodings
  double f64();
  std::string str();  ///< u32 length + bytes
  std::string raw(std::size_t size);  ///< the next `size` bytes, verbatim

  /// Throws WireError unless the whole buffer was consumed — catches
  /// trailing garbage after an otherwise valid payload.
  void expect_done() const;

 private:
  /// One bounds check, then the word's bytes, least significant first.
  template <class U>
  U get() {
    static_assert(std::is_unsigned_v<U>);
    if (size_ - pos_ < sizeof(U)) truncated();
    const auto* p = reinterpret_cast<const unsigned char*>(data_ + pos_);
    U v = 0;
    for (std::size_t i = 0; i < sizeof(U); ++i)
      v = static_cast<U>(v | static_cast<U>(static_cast<U>(p[i]) << (8 * i)));
    pos_ += sizeof(U);
    return v;
  }
  [[noreturn]] static void truncated();

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace wp::wire
