// Versioned, checksummed artifact container for persisted models (the
// bridge between Phase I training and Phase II serving). File layout:
//
//   magic        8 bytes  "AQUAMODL"
//   version      u32      format version (kFormatVersion)
//   sections     u32      section count
//   table        per section: name (u32 len + bytes), payload size (u64),
//                CRC-32 of the payload (u32)
//   payloads     section payloads concatenated in table order
//
// The reader is strict: unknown magic, unsupported version, truncation,
// bytes after the last payload, and checksum mismatches all raise
// io::SerializationError. See DESIGN.md §8 ("Profile-model artifacts")
// for the compatibility policy.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "io/binary.hpp"

namespace aqua::io {

// v2: GB/RF/HybridRSL classifier states gained max_bins.
// v3: the `model` payload writes each distinct SVM feature map once, in a
// table ahead of the classifier states, and every SVM state (plain or
// inside HybridRSL) refers to its map by index; the GB/RF/HybridRSL
// states lost v2's retired exact_splits byte.
// v4: one kind per profile. The `model` payload writes the kind tag once,
// then the profile's one SVM feature map (or none), then per label a
// constant rate or a classifier state; states carry no constant mode, no
// map index and no second copy of a hyper-parameter. The `profile`
// section lost its model-kind byte.
inline constexpr std::uint32_t kFormatVersion = 4;

/// Collects named sections in memory, then emits the container.
class ArtifactWriter {
 public:
  explicit ArtifactWriter(std::uint32_t version = kFormatVersion) : version_(version) {}

  /// Starts a new section and returns the writer for its payload. The
  /// reference stays valid for the ArtifactWriter's lifetime. Section names
  /// must be unique.
  BinaryWriter& section(const std::string& name);

  /// Writes magic + version + table + payloads to the stream.
  void write_to(std::ostream& out) const;

 private:
  struct Section {
    std::string name;
    BinaryWriter writer;
  };

  std::uint32_t version_;
  std::vector<std::unique_ptr<Section>> sections_;
};

/// Reads a whole container into one buffer and validates it up front:
/// magic, version, section table, that every payload lies inside the
/// buffer, that no bytes follow the last payload, and every section's
/// CRC-32. Sections are then decoded on demand.
class ArtifactReader {
 public:
  /// Reads the stream to its end and validates it; throws
  /// SerializationError on any structural problem or checksum mismatch.
  explicit ArtifactReader(std::istream& in);

  std::uint32_t version() const noexcept { return version_; }

  /// Reader over a section's payload; throws if the section is absent. The
  /// returned reader views memory owned by this ArtifactReader.
  BinaryReader section(const std::string& name) const;

 private:
  struct Span {
    std::size_t offset = 0;
    std::size_t size = 0;
  };

  std::string_view payload(const Span& span) const noexcept {
    return std::string_view(bytes_).substr(span.offset, span.size);
  }

  std::string bytes_;
  std::uint32_t version_ = 0;
  std::map<std::string, Span> sections_;  // payload positions in bytes_
};

}  // namespace aqua::io
