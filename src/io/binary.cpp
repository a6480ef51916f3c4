#include "io/binary.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace aqua::io {

namespace {

template <typename T>
void append_le(std::string& buffer, T value) {
  for (std::size_t b = 0; b < sizeof(T); ++b) {
    buffer.push_back(static_cast<char>((value >> (8 * b)) & 0xffu));
  }
}

template <typename T>
T decode_le(std::span<const char> bytes) {
  T value = 0;
  for (std::size_t b = 0; b < sizeof(T); ++b) {
    value |= static_cast<T>(static_cast<unsigned char>(bytes[b])) << (8 * b);
  }
  return value;
}

// Sanity caps against absurd length prefixes from corrupt artifacts; real
// payloads (names, feature vectors) are far below these.
constexpr std::size_t kMaxStringLength = 1u << 20;
constexpr std::size_t kMaxVectorLength = 1u << 28;

}  // namespace

void BinaryWriter::write_u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }

void BinaryWriter::write_u32(std::uint32_t value) { append_le(buffer_, value); }

void BinaryWriter::write_u64(std::uint64_t value) { append_le(buffer_, value); }

void BinaryWriter::write_i32(std::int32_t value) {
  append_le(buffer_, static_cast<std::uint32_t>(value));
}

void BinaryWriter::write_f64(double value) {
  append_le(buffer_, std::bit_cast<std::uint64_t>(value));
}

void BinaryWriter::write_bool(bool value) { write_u8(value ? 1 : 0); }

void BinaryWriter::write_string(std::string_view value) {
  if (value.size() > kMaxStringLength) {
    throw SerializationError("string too long to serialize");
  }
  write_u32(static_cast<std::uint32_t>(value.size()));
  buffer_.append(value.data(), value.size());
}

void BinaryWriter::write_f64_vector(std::span<const double> values) {
  write_u64(values.size());
  for (double v : values) write_f64(v);
}

void BinaryWriter::write_bytes(std::string_view bytes) { buffer_.append(bytes); }

std::span<const char> BinaryReader::take(std::size_t count) {
  if (count > remaining()) {
    throw SerializationError("truncated artifact: needed " + std::to_string(count) +
                             " bytes, only " + std::to_string(remaining()) + " remain");
  }
  std::span<const char> view(data_.data() + pos_, count);
  pos_ += count;
  return view;
}

std::uint8_t BinaryReader::read_u8() {
  return static_cast<std::uint8_t>(static_cast<unsigned char>(take(1)[0]));
}

std::uint32_t BinaryReader::read_u32() { return decode_le<std::uint32_t>(take(4)); }

std::uint64_t BinaryReader::read_u64() { return decode_le<std::uint64_t>(take(8)); }

std::int32_t BinaryReader::read_i32() { return static_cast<std::int32_t>(read_u32()); }

double BinaryReader::read_f64() { return std::bit_cast<double>(read_u64()); }

bool BinaryReader::read_bool() {
  const std::uint8_t value = read_u8();
  if (value > 1) throw SerializationError("malformed bool value");
  return value != 0;
}

std::string BinaryReader::read_string() {
  const std::uint32_t length = read_u32();
  if (length > kMaxStringLength) throw SerializationError("malformed string length");
  const auto bytes = take(length);
  return std::string(bytes.data(), bytes.size());
}

std::vector<double> BinaryReader::read_f64_vector() {
  const std::uint64_t count = read_u64();
  if (count > kMaxVectorLength) throw SerializationError("malformed vector length");
  if (count * sizeof(double) > remaining()) {
    throw SerializationError("truncated artifact: vector extends past section end");
  }
  std::vector<double> values(count);
  for (auto& v : values) v = read_f64();
  return values;
}

void BinaryReader::expect_end() const {
  if (remaining() != 0) {
    throw SerializationError("trailing bytes after decoded content (" +
                             std::to_string(remaining()) + " unread)");
  }
}

std::uint32_t crc32(std::string_view bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (char byte : bytes) {
    crc = table[(crc ^ static_cast<unsigned char>(byte)) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace aqua::io
