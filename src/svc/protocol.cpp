#include "svc/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "util/hash.hpp"
#include "util/wire.hpp"

namespace wp::svc {

namespace {

using eval::ErrorCode;

constexpr std::size_t kHeaderSize = 12;   // magic+version+type+reserved+len
constexpr std::size_t kChecksumSize = 8;
/// The payload arrives in chunks of at most this many bytes.
constexpr std::size_t kReadChunk = 64u << 10;

/// The one frame parser, over a byte source: read(dst, n, allow_eof)
/// fills dst with the next n bytes, or returns false at a clean end before
/// them (allow_eof); any other shortfall throws. Header before allocation,
/// and the payload buffer grows one bounded chunk at a time as its bytes
/// arrive: a header alone cannot make the reader allocate the declared
/// length, so a reader's memory follows the bytes that arrived.
template <class Read>
std::optional<Frame> parse_frame(Read&& read) {
  char header[kHeaderSize];
  if (!read(header, kHeaderSize, /*allow_eof=*/true)) return std::nullopt;
  wire::Reader r(header, kHeaderSize);
  if (r.u32() != kFrameMagic)
    throw ProtocolError(ErrorCode::kMalformedFrame, "bad frame magic");
  const std::uint8_t version = r.u8();
  if (version != kFrameVersion)
    throw ProtocolError(ErrorCode::kBadVersion,
                        "unsupported frame version " +
                            std::to_string(version));
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(FrameType::kEvalBatch) ||
      type > static_cast<std::uint8_t>(FrameType::kStatsReply))
    throw ProtocolError(ErrorCode::kMalformedFrame,
                        "unknown frame type " + std::to_string(type));
  if (r.u16() != 0)
    throw ProtocolError(ErrorCode::kMalformedFrame, "nonzero reserved bits");
  const std::uint32_t len = r.u32();
  if (len > kMaxFramePayload)
    throw ProtocolError(ErrorCode::kOversizedFrame,
                        "declared payload of " + std::to_string(len) +
                            " bytes exceeds the cap");
  Frame frame{static_cast<FrameType>(type), {}};
  for (std::size_t got = 0; got < len;) {
    const std::size_t n = std::min<std::size_t>(len - got, kReadChunk);
    frame.payload.resize(got + n);
    read(frame.payload.data() + got, n, /*allow_eof=*/false);
    got += n;
  }
  char checksum[kChecksumSize];
  read(checksum, kChecksumSize, /*allow_eof=*/false);
  if (wire::Reader(checksum, kChecksumSize).u64() !=
      hash_bytes(frame.payload.data(), len))
    throw ProtocolError(ErrorCode::kMalformedFrame,
                        "payload checksum mismatch");
  return frame;
}

/// The one count-prefixed batch codec: u32 count + count encodings.
template <class T>
std::string encode_batch(const std::vector<T>& batch) {
  wire::Writer w;
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const T& item : batch) item.encode(w);
  return w.take();
}

template <class T>
std::vector<T> decode_batch(const std::string& payload) {
  wire::Reader r(payload);
  const std::uint32_t count = r.u32();
  std::vector<T> batch;
  batch.reserve(std::min<std::size_t>(count, 4096));
  for (std::uint32_t i = 0; i < count; ++i) batch.push_back(T::decode(r));
  r.expect_done();
  return batch;
}

void write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    // MSG_NOSIGNAL: a closed peer is EPIPE, not a process-killing SIGPIPE.
    const ssize_t n =
        ::send(fd, data + written, size - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(ErrorCode::kInternal,
                          std::string("socket write failed: ") +
                              std::strerror(errno));
    }
    written += static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes. Returns false on EOF before the first byte
/// (allow_eof) — mid-read EOF always throws.
bool read_all(int fd, char* data, std::size_t size, bool allow_eof) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw ProtocolError(ErrorCode::kInternal,
                          std::string("socket read failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && allow_eof) return false;
      throw ProtocolError(ErrorCode::kMalformedFrame,
                          "connection closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::string encode_frame(FrameType type, const std::string& payload) {
  if (payload.size() > kMaxFramePayload)
    throw ProtocolError(ErrorCode::kOversizedFrame,
                        "frame payload of " + std::to_string(payload.size()) +
                            " bytes exceeds the " +
                            std::to_string(kMaxFramePayload) + "-byte cap");
  wire::Writer w;
  w.u32(kFrameMagic);
  w.u8(kFrameVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u16(0);  // reserved
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload.data(), payload.size());
  w.u64(hash_bytes(payload.data(), payload.size()));
  return w.take();
}

Frame decode_frame(const void* data, std::size_t size) {
  const char* bytes = static_cast<const char*>(data);
  std::size_t pos = 0;
  Frame frame = *parse_frame([&](char* dst, std::size_t n, bool) {
    if (size - pos < n)
      throw ProtocolError(ErrorCode::kMalformedFrame, "truncated frame");
    std::memcpy(dst, bytes + pos, n);
    pos += n;
    return true;
  });
  if (pos != size)
    throw ProtocolError(ErrorCode::kMalformedFrame,
                        "trailing bytes after the frame");
  return frame;
}

// -------------------------------------------------------------- payloads

std::string encode_request_batch(const std::vector<eval::EvalRequest>& batch) {
  return encode_batch(batch);
}

std::vector<eval::EvalRequest> decode_request_batch(
    const std::string& payload) {
  return decode_batch<eval::EvalRequest>(payload);
}

std::string encode_reply_batch(const std::vector<eval::EvalReply>& batch) {
  return encode_batch(batch);
}

std::vector<eval::EvalReply> decode_reply_batch(const std::string& payload) {
  return decode_batch<eval::EvalReply>(payload);
}

// ------------------------------------------------------------- socket io

void write_frame(int fd, FrameType type, const std::string& payload) {
  const std::string bytes = encode_frame(type, payload);
  write_all(fd, bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(int fd) {
  return parse_frame([fd](char* dst, std::size_t n, bool allow_eof) {
    return read_all(fd, dst, n, allow_eof);
  });
}

}  // namespace wp::svc
