// The wirepipe service frame protocol: length-prefixed binary frames over
// a local stream socket.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic     0x57504556 ("WPEV" as bytes 'W''P''E''V')
//   4       1     version   kFrameVersion (1)
//   5       1     type      FrameType
//   6       2     reserved  must be 0
//   8       4     payload_len
//   12      n     payload   (wire-encoded body, type-dependent)
//   12+n    8     checksum  FNV-1a over the payload bytes
//
// A binary payload is one wire value read to its end: batches share one
// count-prefixed codec (u32 count + EvalRequest / EvalReply encodings), an
// error frame is one eval::EvalError (its field list in request.cpp, so an
// unknown code fails to decode). kStatsRequest is empty and kStatsReply
// carries a raw UTF-8 JSON document (schema wirepipe-stats/1) — the
// scrape is for humans and dashboards, so it skips the binary layer.
// decode_frame and read_frame run one frame parser: wrong magic, foreign
// version, unknown type, nonzero reserved bits, a declared length over
// kMaxFramePayload or a checksum mismatch throw ProtocolError carrying a
// typed eval::ErrorCode, and the reader never touches memory past the
// declared length. The payload buffer grows in chunks of at most 64 KiB as
// bytes arrive, so a header that declares a large payload and then stalls
// costs one chunk, not the declared length. A malformed frame or a vanished peer (writes never
// raise SIGPIPE) can fail a connection loudly but never crash the server.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/request.hpp"

namespace wp::svc {

constexpr std::uint32_t kFrameMagic = 0x56455057;  ///< "WPEV" little-endian
constexpr std::uint8_t kFrameVersion = 1;
/// Ceiling on a frame's declared payload length: large enough for any
/// realistic batch, small enough that a hostile length prefix cannot make
/// the server allocate unbounded memory.
constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t {
  kEvalBatch = 1,     ///< client → server: u32 count + EvalRequest...
  kReplyBatch = 2,    ///< server → client: u32 count + EvalReply...
  kError = 3,         ///< server → client: one eval::EvalError
  kPing = 4,          ///< liveness probe (empty payload)
  kPong = 5,          ///< ping/shutdown acknowledgement (empty payload)
  kShutdown = 6,      ///< client → server: stop serving (empty payload)
  kStatsRequest = 7,  ///< client → server: scrape stats (empty payload)
  kStatsReply = 8,    ///< server → client: UTF-8 JSON stats document
};

/// Framing violation: carries the typed error code the server reports
/// back before dropping the connection.
class ProtocolError : public std::runtime_error {
 public:
  ProtocolError(eval::ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  eval::ErrorCode code() const { return code_; }

 private:
  eval::ErrorCode code_;
};

struct Frame {
  FrameType type = FrameType::kPing;
  std::string payload;
};

/// Frame → bytes. Throws ProtocolError(kOversizedFrame) over the cap.
std::string encode_frame(FrameType type, const std::string& payload);

/// Bytes → frame; the buffer must hold exactly one frame. Throws
/// ProtocolError on any violation, trailing bytes included.
Frame decode_frame(const void* data, std::size_t size);

// ------------------------------------------------------------ payloads

/// `value`'s wire encoding (T::encode) as a frame payload.
template <class T>
std::string encode_payload(const T& value) {
  wire::Writer w;
  value.encode(w);
  return w.take();
}

/// The one T filling `payload` (T::decode); throws wire::WireError.
template <class T>
T decode_payload(const std::string& payload) {
  wire::Reader r(payload);
  T value = T::decode(r);
  r.expect_done();
  return value;
}

std::string encode_request_batch(const std::vector<eval::EvalRequest>& batch);
std::vector<eval::EvalRequest> decode_request_batch(
    const std::string& payload);

std::string encode_reply_batch(const std::vector<eval::EvalReply>& batch);
std::vector<eval::EvalReply> decode_reply_batch(const std::string& payload);

// ------------------------------------------------------------ socket io

/// Writes one frame to the socket `fd` (handles partial writes). Throws
/// ProtocolError(kInternal) on socket failure, a closed peer included.
void write_frame(int fd, FrameType type, const std::string& payload);

/// Reads one frame from `fd`. Returns nullopt on clean EOF at a frame
/// boundary; throws ProtocolError on mid-frame EOF or any framing
/// violation (a bad checksum after consuming the declared bytes).
std::optional<Frame> read_frame(int fd);

}  // namespace wp::svc
