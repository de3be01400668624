#include "util/wire.hpp"

#include <cstring>

namespace wp::wire {

void Writer::u8(std::uint8_t v) { buffer_.push_back(static_cast<char>(v)); }

void Writer::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void Writer::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void Writer::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void Writer::f64(double v) {
  static_assert(sizeof(double) == sizeof(std::uint64_t),
                "wire doubles are 64-bit IEEE-754");
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Writer::str(const std::string& s) {
  if (s.size() > 0xffffffffULL) throw WireError("string too long for wire");
  u32(static_cast<std::uint32_t>(s.size()));
  buffer_.append(s);
}

void Writer::raw(const void* data, std::size_t size) {
  buffer_.append(static_cast<const char*>(data), size);
}

void Reader::take(void* out, std::size_t n) {
  if (size_ - pos_ < n) throw WireError("truncated wire payload");
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
}

std::uint8_t Reader::u8() {
  std::uint8_t v = 0;
  take(&v, sizeof v);
  return v;
}

std::uint16_t Reader::u16() {
  const std::uint16_t lo = u8();
  const std::uint16_t hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t Reader::u32() {
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | (hi << 16);
}

std::uint64_t Reader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

bool Reader::b() {
  const std::uint8_t v = u8();
  if (v > 1) throw WireError("malformed bool on wire");
  return v != 0;
}

double Reader::f64() {
  const std::uint64_t bits = u64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string Reader::str() { return raw(u32()); }

std::string Reader::raw(std::size_t size) {
  if (size_ - pos_ < size) throw WireError("length exceeds wire payload");
  std::string s(data_ + pos_, size);
  pos_ += size;
  return s;
}

void Reader::expect_done() const {
  if (pos_ != size_) throw WireError("trailing bytes after wire payload");
}

}  // namespace wp::wire
