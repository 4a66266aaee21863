#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace trkx {

/// The one owner of the repo's binary byte layout: checkpoints, event
/// files, Adam state, parameter stores and the pipeline model are written
/// with ByteWriter and read with ByteReader, little-endian and unpadded:
///   frame     {u64 length, u32 crc32(bytes), bytes}
///   envelope  {u32 magic, u32 version, frame}
/// The reader checks every length and count against the bytes that
/// remain before allocating, verifies a frame's CRC before handing out
/// its bytes, and throws the caller's typed error naming the source and
/// the byte offset.
static_assert(std::endian::native == std::endian::little,
              "the codec stores native words: little-endian hosts only");

/// CRC-32 (IEEE 802.3, reflected). `seed` continues an earlier checksum.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

inline constexpr std::size_t kFrameHeaderBytes = 12;

/// IoError for event files, CheckpointError for model state.
enum class CodecError { kIo, kCheckpoint };

/// Writes arithmetic values, or structs of them without padding (the
/// caller static_asserts the size).
struct ByteWriter {
  template <typename T>
  void put(const T& v) {
    put_array(&v, 1);
  }
  template <typename T>
  void put_array(const T* data, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes.append(reinterpret_cast<const char*>(data), n * sizeof(T));
  }
  /// u64 count, then the values of a std::vector or std::string.
  template <typename Container>
  void put_vector(const Container& v) {
    put<std::uint64_t>(v.size());
    put_array(v.data(), v.size());
  }
  void put_frame(std::string_view payload);
  static ByteWriter envelope(std::uint32_t magic, std::uint32_t version,
                             std::string_view payload);
  /// All of `bytes` to `os`; a short write throws `error` naming `sink`.
  void write_to(std::ostream& os, CodecError error,
                const std::string& sink) const;

  std::string bytes;
};

/// Reads bytes in memory, or the rest of an open, seekable stream piece by
/// piece (an event file, record by record). A frame read from a stream
/// views a buffer that the reader's next read replaces.
class ByteReader {
 public:
  /// `source` names the bytes in errors; `base` is their offset in it.
  ByteReader(std::string_view bytes, CodecError error, std::string source,
             std::uint64_t base = 0);
  ByteReader(std::istream& is, CodecError error, std::string source);

  template <typename T>
  T get() {
    T v{};
    get_array(&v, 1);
    return v;
  }
  template <typename T>
  void get_array(T* out, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::copy_n(take(n, sizeof(T)), n * sizeof(T),
                reinterpret_cast<char*>(out));
  }
  /// A u64 count of items of `size` bytes or more, bounded by what remains.
  std::uint64_t get_count(std::size_t size);
  template <typename T>
  std::vector<T> get_vector() {
    std::vector<T> v(get_count(sizeof(T)));
    get_array(v.data(), v.size());
    return v;
  }
  /// A {u32 magic, u32 version} header; both must match (`what` names
  /// the format in errors). An envelope is a whole file: such a header,
  /// then a frame whose payload is returned.
  void get_header(std::uint32_t magic, std::uint32_t version,
                  const std::string& what);
  ByteReader get_frame();
  ByteReader get_envelope(std::uint32_t magic, std::uint32_t version,
                          const std::string& what);
  /// Step over a frame by its length field alone.
  void skip_frame();
  void seek(std::uint64_t offset);
  void expect_end() const;

  std::uint64_t offset() const { return base_ + pos_; }
  std::uint64_t remaining() const {
    return (is_ != nullptr ? end_ : bytes_.size()) - pos_;
  }
  [[noreturn]] void fail(const std::string& what) const;

 private:
  const char* take(std::size_t n, std::size_t size);

  std::string_view bytes_;
  std::istream* is_ = nullptr;
  std::string buffer_;  ///< stream mode: the bytes of the last read
  CodecError error_;
  std::string source_;
  std::uint64_t base_ = 0;
  std::uint64_t pos_ = 0;
  std::uint64_t end_ = 0;  ///< stream mode: the stream's size
};

}  // namespace trkx
