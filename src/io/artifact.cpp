#include "io/artifact.hpp"

#include <array>
#include <istream>
#include <ostream>

namespace aqua::io {

namespace {

constexpr std::array<char, 8> kMagic = {'A', 'Q', 'U', 'A', 'M', 'O', 'D', 'L'};
constexpr std::uint32_t kMaxSections = 1024;
constexpr std::uint32_t kMaxSectionName = 256;

std::string read_all(std::istream& in) {
  std::string bytes;
  std::array<char, 1 << 16> chunk;
  while (in) {
    in.read(chunk.data(), chunk.size());
    bytes.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  }
  return bytes;
}

}  // namespace

BinaryWriter& ArtifactWriter::section(const std::string& name) {
  for (const auto& s : sections_) {
    if (s->name == name) throw SerializationError("duplicate artifact section: " + name);
  }
  sections_.push_back(std::make_unique<Section>(Section{name, BinaryWriter{}}));
  return sections_.back()->writer;
}

void ArtifactWriter::write_to(std::ostream& out) const {
  BinaryWriter header;
  for (char c : kMagic) header.write_u8(static_cast<std::uint8_t>(c));
  header.write_u32(version_);
  header.write_u32(static_cast<std::uint32_t>(sections_.size()));
  for (const auto& s : sections_) {
    header.write_string(s->name);
    header.write_u64(s->writer.size());
    header.write_u32(crc32(s->writer.buffer()));
  }
  out.write(header.buffer().data(), static_cast<std::streamsize>(header.size()));
  for (const auto& s : sections_) {
    out.write(s->writer.buffer().data(), static_cast<std::streamsize>(s->writer.size()));
  }
  if (!out) throw SerializationError("stream write failed while saving artifact");
}

ArtifactReader::ArtifactReader(std::istream& in) : bytes_(read_all(in)) {
  BinaryReader header(bytes_);
  if (bytes_.size() < kMagic.size() + 8) {
    throw SerializationError("truncated artifact: shorter than the fixed header");
  }
  for (char expected : kMagic) {
    if (static_cast<char>(header.read_u8()) != expected) {
      throw SerializationError("not an AquaSCALE model artifact (bad magic)");
    }
  }
  version_ = header.read_u32();
  const std::uint32_t count = header.read_u32();
  if (version_ != kFormatVersion) {
    throw SerializationError("unsupported artifact format version " + std::to_string(version_) +
                             " (this build reads version " + std::to_string(kFormatVersion) + ")");
  }
  if (count > kMaxSections) throw SerializationError("malformed artifact: section count");

  struct Entry {
    std::string name;
    std::uint64_t size;
    std::uint32_t crc;
  };
  std::vector<Entry> entries;
  entries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry entry;
    try {
      entry.name = header.read_string();
      entry.size = header.read_u64();
      entry.crc = header.read_u32();
    } catch (const SerializationError&) {
      throw SerializationError("truncated artifact: section table ends mid-entry");
    }
    if (entry.name.empty() || entry.name.size() > kMaxSectionName) {
      throw SerializationError("malformed artifact: section name length");
    }
    entries.push_back(std::move(entry));
  }

  // Payloads follow the table in order and must fill the rest of the
  // buffer exactly: a table pointing past the end is a truncated artifact,
  // and bytes after the last payload are not part of any artifact.
  std::size_t offset = bytes_.size() - header.remaining();
  for (const auto& entry : entries) {
    if (entry.size > bytes_.size() - offset) {
      throw SerializationError("truncated artifact: section '" + entry.name +
                               "' extends past the end of the data");
    }
    const Span span{offset, static_cast<std::size_t>(entry.size)};
    if (crc32(payload(span)) != entry.crc) {
      throw SerializationError("checksum mismatch in artifact section '" + entry.name +
                               "' (corrupted artifact)");
    }
    if (!sections_.emplace(entry.name, span).second) {
      throw SerializationError("duplicate artifact section: " + entry.name);
    }
    offset += span.size;
  }
  if (offset != bytes_.size()) {
    throw SerializationError("malformed artifact: trailing bytes after the last section");
  }
}

bool ArtifactReader::has_section(const std::string& name) const {
  return sections_.count(name) != 0;
}

BinaryReader ArtifactReader::section(const std::string& name) const {
  const auto it = sections_.find(name);
  if (it == sections_.end()) {
    throw SerializationError("artifact is missing required section '" + name + "'");
  }
  return BinaryReader(payload(it->second));
}

}  // namespace aqua::io
