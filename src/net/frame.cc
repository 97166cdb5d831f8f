#include "net/frame.h"

#include <algorithm>
#include <cstring>

namespace stbpu::net {

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v & 0xFF);
  out += static_cast<char>((v >> 8) & 0xFF);
  out += static_cast<char>((v >> 16) & 0xFF);
  out += static_cast<char>((v >> 24) & 0xFF);
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xFF);
}

std::uint32_t get_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t get_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

std::uint64_t fnv1a64(const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  put_u32(out, kFrameMagic);
  out += static_cast<char>(type);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u64(out, fnv1a64(payload.data(), payload.size()));
  out.append(payload.data(), payload.size());
  return out;
}

bool send_frame(TcpConn& conn, FrameType type, std::string_view payload,
                std::int64_t deadline_ms, std::string& err) {
  if (payload.size() > kMaxFramePayload) {
    err = "frame payload too large";
    return false;
  }
  const std::string wire = encode_frame(type, payload);
  return conn.send_all(wire.data(), wire.size(), deadline_ms, err);
}

bool recv_frame(TcpConn& conn, FrameType& type, std::string& payload,
                std::int64_t deadline_ms, std::string& err) {
  unsigned char header[kFrameHeaderBytes];
  if (!conn.recv_all(header, sizeof header, deadline_ms, err)) return false;
  if (get_u32(header) != kFrameMagic) {
    err = "bad frame magic (peer is not speaking the fabric protocol)";
    return false;
  }
  const std::uint8_t type_byte = header[4];
  if (type_byte < static_cast<std::uint8_t>(FrameType::kRequest) ||
      type_byte > static_cast<std::uint8_t>(FrameType::kError)) {
    err = "unknown frame type " + std::to_string(type_byte);
    return false;
  }
  const std::uint32_t length = get_u32(header + 5);
  if (length > kMaxFramePayload) {
    err = "frame length " + std::to_string(length) + " exceeds protocol maximum";
    return false;
  }
  const std::uint64_t checksum = get_u64(header + 9);
  // Grow the payload as bytes arrive rather than trusting the header's
  // length up front: a peer that claims kMaxFramePayload and then closes
  // costs one chunk, not a 256 MiB zero-filled allocation.
  constexpr std::size_t kRecvChunk = std::size_t{1} << 20;
  payload.clear();
  while (payload.size() < length) {
    const std::size_t got = payload.size();
    const std::size_t n = std::min<std::size_t>(kRecvChunk, length - got);
    payload.resize(got + n);
    if (!conn.recv_all(payload.data() + got, n, deadline_ms, err)) return false;
  }
  if (fnv1a64(payload.data(), payload.size()) != checksum) {
    err = "payload checksum mismatch (corrupt frame)";
    return false;
  }
  type = static_cast<FrameType>(type_byte);
  return true;
}

}  // namespace stbpu::net
