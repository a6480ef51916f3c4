// Low-level binary serialization primitives for model artifacts: a
// little-endian append-only writer over an in-memory buffer and a strict
// bounds-checked reader over a byte view. All multi-byte values are encoded
// little-endian regardless of host order; doubles are serialized by IEEE-754
// bit pattern so a round trip is bit-exact.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace aqua::io {

/// Thrown when an artifact cannot be decoded: truncation, checksum
/// mismatch, unknown format version, or a malformed field. Artifact
/// corruption is an environmental failure (like a solver that cannot
/// converge), not a caller mistake, hence a runtime_error.
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitives to an owned byte buffer.
class BinaryWriter {
 public:
  void write_u8(std::uint8_t value);
  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);
  void write_i32(std::int32_t value);
  void write_f64(double value);
  void write_bool(bool value);
  /// u32 length prefix + raw bytes.
  void write_string(std::string_view value);
  /// u64 count prefix + packed f64 values.
  void write_f64_vector(std::span<const double> values);
  /// Raw bytes, no prefix (splices an already encoded payload).
  void write_bytes(std::string_view bytes);

  const std::string& buffer() const noexcept { return buffer_; }
  std::size_t size() const noexcept { return buffer_.size(); }

 private:
  std::string buffer_;
};

/// Reads primitives back from a byte view; every read is bounds-checked and
/// throws SerializationError on overrun. The reader does not own the bytes.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  double read_f64();
  bool read_bool();
  std::string read_string();
  std::vector<double> read_f64_vector();

  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  /// Throws if decoded content did not consume the whole view (a section
  /// that is longer than its schema indicates corruption).
  void expect_end() const;

 private:
  std::span<const char> take(std::size_t count);

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial) of a byte range.
std::uint32_t crc32(std::string_view bytes);

}  // namespace aqua::io
