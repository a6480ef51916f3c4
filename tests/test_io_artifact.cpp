#include "io/artifact.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "io/binary.hpp"

namespace aqua::io {
namespace {

TEST(BinaryCodec, PrimitivesRoundTrip) {
  BinaryWriter writer;
  writer.write_u8(0xAB);
  writer.write_u32(0xDEADBEEFu);
  writer.write_u64(0x0123456789ABCDEFull);
  writer.write_i32(-42);
  writer.write_f64(-1.5e-300);
  writer.write_bool(true);
  writer.write_string("hello");
  writer.write_f64_vector(std::vector<double>{1.0, -0.0, 3.25});

  BinaryReader reader(writer.buffer());
  EXPECT_EQ(reader.read_u8(), 0xAB);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.read_i32(), -42);
  EXPECT_EQ(reader.read_f64(), -1.5e-300);
  EXPECT_TRUE(reader.read_bool());
  EXPECT_EQ(reader.read_string(), "hello");
  EXPECT_EQ(reader.read_f64_vector(), (std::vector<double>{1.0, -0.0, 3.25}));
  reader.expect_end();
}

TEST(BinaryCodec, DoublesAreBitExact) {
  const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::denorm_min(), -0.0,
                           0.1 + 0.2};  // not representable exactly
  BinaryWriter writer;
  for (double v : values) writer.write_f64(v);
  BinaryReader reader(writer.buffer());
  for (double v : values) {
    const double got = reader.read_f64();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(v));
  }
}

TEST(BinaryCodec, TruncationThrows) {
  BinaryWriter writer;
  writer.write_u64(7);
  BinaryReader reader(std::string_view(writer.buffer()).substr(0, 5));
  EXPECT_THROW(reader.read_u64(), SerializationError);
}

TEST(BinaryCodec, TrailingBytesDetected) {
  BinaryWriter writer;
  writer.write_u32(1);
  writer.write_u32(2);
  BinaryReader reader(writer.buffer());
  reader.read_u32();
  EXPECT_THROW(reader.expect_end(), SerializationError);
}

TEST(BinaryCodec, MalformedBoolThrows) {
  BinaryReader reader(std::string_view("\x02", 1));
  EXPECT_THROW(reader.read_bool(), SerializationError);
}

TEST(BinaryCodec, MalformedVectorLengthThrows) {
  BinaryWriter writer;
  writer.write_u64(std::numeric_limits<std::uint64_t>::max());
  BinaryReader reader(writer.buffer());
  EXPECT_THROW(reader.read_f64_vector(), SerializationError);
}

TEST(BinaryCodec, Crc32MatchesReferenceVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

std::string write_sample_artifact(std::uint32_t version = kFormatVersion) {
  ArtifactWriter artifact(version);
  auto& alpha = artifact.section("alpha");
  alpha.write_string("payload-a");
  alpha.write_f64(2.5);
  auto& beta = artifact.section("beta");
  beta.write_u64(99);
  std::ostringstream out;
  artifact.write_to(out);
  return out.str();
}

TEST(Artifact, SectionsRoundTrip) {
  const std::string bytes = write_sample_artifact();
  std::istringstream in(bytes);
  const ArtifactReader reader(in);
  EXPECT_EQ(reader.version(), kFormatVersion);

  auto alpha = reader.section("alpha");
  EXPECT_EQ(alpha.read_string(), "payload-a");
  EXPECT_EQ(alpha.read_f64(), 2.5);
  alpha.expect_end();
  auto beta = reader.section("beta");
  EXPECT_EQ(beta.read_u64(), 99u);
  beta.expect_end();
}

TEST(Artifact, MissingSectionThrows) {
  std::istringstream in(write_sample_artifact());
  const ArtifactReader reader(in);
  EXPECT_THROW(reader.section("gamma"), SerializationError);
}

TEST(Artifact, DuplicateSectionNameRejectedAtWrite) {
  ArtifactWriter artifact;
  artifact.section("alpha");
  EXPECT_THROW(artifact.section("alpha"), SerializationError);
}

TEST(Artifact, BadMagicThrows) {
  std::string bytes = write_sample_artifact();
  bytes[0] = 'X';
  std::istringstream in(bytes);
  EXPECT_THROW(ArtifactReader reader(in), SerializationError);
}

TEST(Artifact, UnknownVersionThrows) {
  const std::string bytes = write_sample_artifact(kFormatVersion + 7);
  std::istringstream in(bytes);
  EXPECT_THROW(ArtifactReader reader(in), SerializationError);
}

TEST(Artifact, TruncationThrowsAtEveryPrefix) {
  const std::string bytes = write_sample_artifact();
  // Every strict prefix must fail loudly, never yield a partial artifact.
  for (std::size_t cut = 0; cut < bytes.size(); cut += 3) {
    std::istringstream in(bytes.substr(0, cut));
    EXPECT_THROW(ArtifactReader reader(in), SerializationError) << "prefix length " << cut;
  }
}

TEST(Artifact, PayloadCorruptionDetectedByChecksum) {
  const std::string clean = write_sample_artifact();
  // Flip one bit in every payload byte position (the payloads are at the
  // tail, after the header + table) and expect the CRC to catch each one.
  const std::size_t payload_size = std::string("payload-a").size() + 4 + 8 + 8;
  for (std::size_t back = 1; back <= payload_size; ++back) {
    std::string bytes = clean;
    bytes[bytes.size() - back] = static_cast<char>(bytes[bytes.size() - back] ^ 0x10);
    std::istringstream in(bytes);
    EXPECT_THROW(ArtifactReader reader(in), SerializationError) << "byte from end: " << back;
  }
}

TEST(Artifact, EmptyStreamThrows) {
  std::istringstream in("");
  EXPECT_THROW(ArtifactReader reader(in), SerializationError);
}

TEST(Artifact, TrailingBytesAfterLastSectionThrow) {
  // Every byte of the stream belongs to the artifact: bytes after the
  // last payload mean a spliced or mis-framed file, not a valid one.
  std::istringstream in(write_sample_artifact() + "junk");
  EXPECT_THROW(ArtifactReader reader(in), SerializationError);
}

}  // namespace
}  // namespace aqua::io
