// Shared plumbing for the versioned binary trace/catalog formats.
//
// Layout, endianness, and the string-table encoding are specified in
// src/catalog/BINARY_FORMAT.md; this header supplies the mechanical pieces:
// a little-endian append Writer, an atomic-ish file writer, an mmap-backed
// read-only InputFile (with a plain-read fallback), and a bounds-checked
// little-endian Reader whose every accessor returns Status instead of
// walking off the end — corrupt headers, truncated files, and version
// mismatches must surface as errors, never as crashes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace locaware::catalog::binio {

/// 8-byte magic prefixes. A text trace starts with "# locawar", so eight
/// bytes unambiguously separate the formats (and both from garbage).
inline constexpr std::string_view kTraceMagic = "LWTRACEB";
inline constexpr std::string_view kCatalogMagic = "LWCATLGB";

/// Format version both writers stamp and both loaders require.
inline constexpr uint32_t kFormatVersion = 1;

/// \brief Append-only little-endian byte buffer for the save paths.
class Writer {
 public:
  void U32(uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    buf_.append(reinterpret_cast<const char*>(b), sizeof(b));
  }
  void U64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    buf_.append(reinterpret_cast<const char*>(b), sizeof(b));
  }
  void Bytes(const void* data, size_t n) {
    buf_.append(static_cast<const char*>(data), n);
  }

  const std::string& buffer() const { return buf_; }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Writes magic + version + `payload` to `path` (truncating). IOError on any
/// filesystem failure.
Status WriteFile(const std::string& path, std::string_view magic,
                 const std::string& payload);

/// \brief Read-only view of a file's bytes: mmap when the platform allows,
/// a heap read otherwise. Move-only; unmaps/frees on destruction.
class InputFile {
 public:
  static Result<InputFile> Open(const std::string& path);

  InputFile(InputFile&& other) noexcept { Swap(&other); }
  InputFile& operator=(InputFile&& other) noexcept {
    if (this != &other) {
      Release();
      Swap(&other);
    }
    return *this;
  }
  InputFile(const InputFile&) = delete;
  InputFile& operator=(const InputFile&) = delete;
  ~InputFile() { Release(); }

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  InputFile() = default;
  void Swap(InputFile* other);
  void Release();

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;  ///< true: munmap on release; false: delete[]
};

/// \brief Bounds-checked little-endian cursor over a byte span.
class Reader {
 public:
  Reader(const uint8_t* data, size_t size, std::string path)
      : data_(data), size_(size), path_(std::move(path)) {}

  /// Consumes and checks the 8-byte magic and the u32 version.
  Status ExpectHeader(std::string_view magic, uint32_t version);

  Result<uint32_t> U32();
  Result<uint64_t> U64();

  /// Returns a pointer to the next `n` bytes and advances past them.
  Result<const uint8_t*> View(size_t n);

  size_t remaining() const { return size_ - pos_; }

  /// InvalidArgument naming the file and what was being read.
  Status Truncated(std::string_view what) const;

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::string path_;
};

/// Reads the first 8 bytes of `path` and compares them to `magic`. False for
/// shorter files (a valid text trace is never 8 bytes of magic). IOError only
/// when the file cannot be opened at all.
Result<bool> FileStartsWith(const std::string& path, std::string_view magic);

}  // namespace locaware::catalog::binio
