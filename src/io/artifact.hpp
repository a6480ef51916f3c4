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
// Readers are strict: unknown magic, unsupported version, truncation, and
// checksum mismatches all raise io::SerializationError. See DESIGN.md
// ("Model artifact format") for the compatibility policy.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "io/binary.hpp"

namespace aqua::io {

// v2: GB/RF/HybridRSL classifier states gained max_bins.
// v3: the `model` payload writes each distinct SVM feature map once, in a
// table ahead of the classifier states, and every SVM state (plain or
// inside HybridRSL) refers to its map by index; the GB/RF/HybridRSL
// states lost v2's retired exact_splits byte.
inline constexpr std::uint32_t kFormatVersion = 3;

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

/// Read-side abstraction over an opened AQUAMODL container. Two
/// implementations exist: ArtifactReader (buffered: the whole file is
/// copied into memory and every checksum is validated up front) and
/// MappedArtifactReader (mapped_artifact.hpp: the file is mmapped and
/// checksums are validated lazily on first section access). Decoders such
/// as ProfileModel::load work against this interface so they are agnostic
/// to how the bytes arrived.
class ArtifactSource {
 public:
  virtual ~ArtifactSource() = default;

  virtual std::uint32_t version() const noexcept = 0;
  virtual bool has_section(const std::string& name) const = 0;

  /// Reader over a section's payload; throws SerializationError if the
  /// section is absent (or, for lazy implementations, fails validation).
  /// The returned reader views memory owned by this source, which must
  /// outlive it.
  virtual BinaryReader section(const std::string& name) const = 0;
};

/// Parses a container fully into memory, validating structure and
/// checksums up front; sections are then decoded on demand.
class ArtifactReader final : public ArtifactSource {
 public:
  /// Reads and validates the whole artifact; throws SerializationError on
  /// any structural problem.
  explicit ArtifactReader(std::istream& in);

  std::uint32_t version() const noexcept override { return version_; }
  bool has_section(const std::string& name) const override;

  /// Reader over a section's payload; throws if the section is absent. The
  /// returned reader views memory owned by this ArtifactReader.
  BinaryReader section(const std::string& name) const override;

 private:
  std::uint32_t version_ = 0;
  std::map<std::string, std::string> payloads_;
};

}  // namespace aqua::io
