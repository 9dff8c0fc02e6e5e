#include "common/bytes.h"

namespace rddr {

void put_u32_be(Bytes& out, uint32_t v) {
  const char b[4] = {static_cast<char>(v >> 24), static_cast<char>(v >> 16),
                     static_cast<char>(v >> 8), static_cast<char>(v)};
  out.append(b, 4);
}

void put_u16_be(Bytes& out, uint16_t v) {
  const char b[2] = {static_cast<char>(v >> 8), static_cast<char>(v)};
  out.append(b, 2);
}

uint32_t get_u32_be(ByteView b, size_t pos) {
  return (static_cast<uint32_t>(static_cast<unsigned char>(b[pos])) << 24) |
         (static_cast<uint32_t>(static_cast<unsigned char>(b[pos + 1])) << 16) |
         (static_cast<uint32_t>(static_cast<unsigned char>(b[pos + 2])) << 8) |
         static_cast<uint32_t>(static_cast<unsigned char>(b[pos + 3]));
}

uint16_t get_u16_be(ByteView b, size_t pos) {
  return static_cast<uint16_t>(
      (static_cast<uint16_t>(static_cast<unsigned char>(b[pos])) << 8) |
      static_cast<uint16_t>(static_cast<unsigned char>(b[pos + 1])));
}

Bytes to_hex(ByteView b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  Bytes out;
  out.reserve(b.size() * 2);
  for (unsigned char c : b) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

namespace {
int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Bytes from_hex(ByteView hex) {
  if (hex.size() % 2 != 0) return {};
  Bytes out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = hex_val(hex[i]);
    int lo = hex_val(hex[i + 1]);
    if (hi < 0 || lo < 0) return {};
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace rddr
