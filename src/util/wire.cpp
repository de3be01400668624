#include "util/wire.hpp"

#include <algorithm>
#include <cstring>

namespace wp::wire {

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
  raw(s.data(), s.size());
}

void Writer::raw(const void* data, std::size_t size) {
  if (size != 0) std::memcpy(claim(size), data, size);
}

void Writer::grow(std::size_t n) {
  // Doubling from a 256-byte first block: a 16-request batch of tiny
  // floorplan requests (about 3 KB) takes five allocations.
  buffer_.resize(
      std::max(2 * buffer_.size(), size_ + std::max<std::size_t>(n, 256)));
}

void Reader::truncated() { throw WireError("truncated wire payload"); }

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
