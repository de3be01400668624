// Wire serialization primitives for the evaluation service.
//
// A tiny explicit-little-endian byte-stream format shared by the
// EvalRequest/EvalReply value types (src/eval) and the daemon frame
// protocol (src/svc): fixed-width integers written byte by byte (the
// format is an interchange format between processes, unlike the
// host-order golden-record files), doubles as IEEE-754 bit patterns,
// strings and containers length-prefixed. The Reader is bounds-checked
// and throws WireError on any violation — truncated input, a length
// prefix larger than the remaining bytes, trailing garbage — so a
// malformed payload can never crash a decoder, only fail it loudly.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

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
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u8(v ? 1 : 0); }
  void f64(double v);                 ///< IEEE-754 bit pattern as u64
  void str(const std::string& s);     ///< u32 length + bytes
  void raw(const void* data, std::size_t size);

  const std::string& bytes() const { return buffer_; }
  std::string take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Bounds-checked sequential reader over a byte buffer. Non-owning: the
/// buffer must outlive the reader.
class Reader {
 public:
  Reader(const void* data, std::size_t size)
      : data_(static_cast<const char*>(data)), size_(size) {}
  explicit Reader(const std::string& bytes)
      : Reader(bytes.data(), bytes.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool b();           ///< strict: only 0/1 are valid encodings
  double f64();
  std::string str();  ///< u32 length + bytes
  std::string raw(std::size_t size);  ///< the next `size` bytes, verbatim

  std::size_t remaining() const { return size_ - pos_; }
  bool done() const { return pos_ == size_; }
  /// Throws WireError unless the whole buffer was consumed — catches
  /// trailing garbage after an otherwise valid payload.
  void expect_done() const;

 private:
  void take(void* out, std::size_t n);

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace wp::wire
