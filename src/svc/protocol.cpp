#include "svc/protocol.hpp"

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

bool valid_frame_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kEvalBatch) &&
         type <= static_cast<std::uint8_t>(FrameType::kStatsReply);
}

std::uint64_t payload_checksum(const std::string& payload) {
  return hash_bytes(payload.data(), payload.size());
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
  w.u64(payload_checksum(payload));
  return w.take();
}

Frame decode_frame(const void* data, std::size_t size) {
  try {
    wire::Reader r(data, size);
    if (r.remaining() < kHeaderSize)
      throw ProtocolError(ErrorCode::kMalformedFrame,
                          "truncated frame header");
    if (r.u32() != kFrameMagic)
      throw ProtocolError(ErrorCode::kMalformedFrame, "bad frame magic");
    const std::uint8_t version = r.u8();
    if (version != kFrameVersion)
      throw ProtocolError(ErrorCode::kBadVersion,
                          "unsupported frame version " +
                              std::to_string(version));
    const std::uint8_t type = r.u8();
    if (!valid_frame_type(type))
      throw ProtocolError(ErrorCode::kMalformedFrame,
                          "unknown frame type " + std::to_string(type));
    if (r.u16() != 0)
      throw ProtocolError(ErrorCode::kMalformedFrame,
                          "nonzero reserved bits");
    const std::uint32_t len = r.u32();
    if (len > kMaxFramePayload)
      throw ProtocolError(ErrorCode::kOversizedFrame,
                          "declared payload of " + std::to_string(len) +
                              " bytes exceeds the cap");
    if (r.remaining() != len + kChecksumSize)
      throw ProtocolError(
          ErrorCode::kMalformedFrame,
          "frame size disagrees with the declared payload length");
    Frame frame;
    frame.type = static_cast<FrameType>(type);
    frame.payload = r.raw(len);
    if (r.u64() != payload_checksum(frame.payload))
      throw ProtocolError(ErrorCode::kMalformedFrame,
                          "payload checksum mismatch");
    r.expect_done();
    return frame;
  } catch (const wire::WireError& e) {
    throw ProtocolError(ErrorCode::kMalformedFrame, e.what());
  }
}

// -------------------------------------------------------------- payloads

std::string encode_request_batch(const std::vector<eval::EvalRequest>& batch) {
  wire::Writer w;
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const eval::EvalRequest& request : batch) request.encode(w);
  return w.take();
}

std::vector<eval::EvalRequest> decode_request_batch(
    const std::string& payload) {
  wire::Reader r(payload);
  const std::uint32_t count = r.u32();
  std::vector<eval::EvalRequest> batch;
  batch.reserve(std::min<std::size_t>(count, 4096));
  for (std::uint32_t i = 0; i < count; ++i)
    batch.push_back(eval::EvalRequest::decode(r));
  r.expect_done();
  return batch;
}

std::string encode_reply_batch(const std::vector<eval::EvalReply>& batch) {
  wire::Writer w;
  w.u32(static_cast<std::uint32_t>(batch.size()));
  for (const eval::EvalReply& reply : batch) reply.encode(w);
  return w.take();
}

std::vector<eval::EvalReply> decode_reply_batch(const std::string& payload) {
  wire::Reader r(payload);
  const std::uint32_t count = r.u32();
  std::vector<eval::EvalReply> batch;
  batch.reserve(std::min<std::size_t>(count, 4096));
  for (std::uint32_t i = 0; i < count; ++i)
    batch.push_back(eval::EvalReply::decode(r));
  r.expect_done();
  return batch;
}

std::string encode_error(eval::ErrorCode code, const std::string& message) {
  wire::Writer w;
  w.u32(static_cast<std::uint32_t>(code));
  w.str(message);
  return w.take();
}

eval::EvalError decode_error(const std::string& payload) {
  wire::Reader r(payload);
  eval::EvalError error;
  const std::uint32_t code = r.u32();
  error.code = code <= static_cast<std::uint32_t>(ErrorCode::kInternal)
                   ? static_cast<ErrorCode>(code)
                   : ErrorCode::kInternal;
  error.message = r.str();
  r.expect_done();
  return error;
}

// ------------------------------------------------------------- socket io

namespace {

void write_all(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
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

void write_frame(int fd, FrameType type, const std::string& payload) {
  const std::string bytes = encode_frame(type, payload);
  write_all(fd, bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(int fd) {
  char header[kHeaderSize];
  if (!read_all(fd, header, kHeaderSize, /*allow_eof=*/true))
    return std::nullopt;

  wire::Reader r(header, kHeaderSize);
  if (r.u32() != kFrameMagic)
    throw ProtocolError(eval::ErrorCode::kMalformedFrame, "bad frame magic");
  const std::uint8_t version = r.u8();
  if (version != kFrameVersion)
    throw ProtocolError(
        eval::ErrorCode::kBadVersion,
        "unsupported frame version " + std::to_string(version));
  const std::uint8_t type = r.u8();
  if (!valid_frame_type(type))
    throw ProtocolError(eval::ErrorCode::kMalformedFrame,
                        "unknown frame type " + std::to_string(type));
  if (r.u16() != 0)
    throw ProtocolError(eval::ErrorCode::kMalformedFrame,
                        "nonzero reserved bits");
  const std::uint32_t len = r.u32();
  if (len > kMaxFramePayload)
    throw ProtocolError(eval::ErrorCode::kOversizedFrame,
                        "declared payload of " + std::to_string(len) +
                            " bytes exceeds the cap");

  Frame frame;
  frame.type = static_cast<FrameType>(type);
  frame.payload.resize(len);
  if (len > 0) read_all(fd, frame.payload.data(), len, /*allow_eof=*/false);

  char checksum_bytes[kChecksumSize];
  read_all(fd, checksum_bytes, kChecksumSize, /*allow_eof=*/false);
  wire::Reader c(checksum_bytes, kChecksumSize);
  if (c.u64() != payload_checksum(frame.payload))
    throw ProtocolError(eval::ErrorCode::kMalformedFrame,
                        "payload checksum mismatch");
  return frame;
}

}  // namespace wp::svc
