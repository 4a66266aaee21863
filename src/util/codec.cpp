#include "util/codec.hpp"

#include <array>
#include <istream>
#include <ostream>
#include <utility>

#include "util/error.hpp"

namespace trkx {

namespace {

[[noreturn]] void raise(CodecError error, const std::string& source,
                        std::uint64_t offset, const std::string& what) {
  const std::string msg =
      what + " (" + source + " at byte " + std::to_string(offset) + ")";
  if (error == CodecError::kIo) throw IoError(msg);
  throw CheckpointError(msg);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i)
    c = table[(c ^ bytes[i]) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

void ByteWriter::put_frame(std::string_view payload) {
  put<std::uint64_t>(payload.size());
  put(crc32(payload.data(), payload.size()));
  put_array(payload.data(), payload.size());
}

ByteWriter ByteWriter::envelope(std::uint32_t magic, std::uint32_t version,
                                std::string_view payload) {
  ByteWriter w;
  w.put(magic);
  w.put(version);
  w.put_frame(payload);
  return w;
}

void ByteWriter::write_to(std::ostream& os, CodecError error,
                          const std::string& sink) const {
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os.good()) raise(error, sink, 0, "write failure");
}

ByteReader::ByteReader(std::string_view bytes, CodecError error,
                       std::string source, std::uint64_t base)
    : bytes_(bytes), error_(error), source_(std::move(source)), base_(base) {}

ByteReader::ByteReader(std::istream& is, CodecError error, std::string source)
    : is_(&is), error_(error), source_(std::move(source)) {
  const std::streamoff start = is.tellg();
  is.seekg(0, std::ios::end);
  const std::streamoff end = is.tellg();
  if (start < 0 || end < start) fail("cannot read: no open, seekable stream");
  end_ = static_cast<std::uint64_t>(end);
  seek(static_cast<std::uint64_t>(start));
}

void ByteReader::fail(const std::string& what) const {
  raise(error_, source_, offset(), what);
}

const char* ByteReader::take(std::size_t n, std::size_t size) {
  if (n > remaining() / size)
    fail("truncated read of " + std::to_string(n * size) + " bytes");
  const std::size_t bytes = n * size;
  if (is_ != nullptr) {
    buffer_.resize(bytes);
    is_->read(buffer_.data(), static_cast<std::streamsize>(bytes));
    if (is_->gcount() != static_cast<std::streamsize>(bytes))
      fail("read failure");
  }
  const char* p = is_ != nullptr ? buffer_.data() : bytes_.data() + pos_;
  pos_ += bytes;
  return p;
}

std::uint64_t ByteReader::get_count(std::size_t size) {
  const auto n = get<std::uint64_t>();
  if (n > remaining() / size)
    fail("count " + std::to_string(n) + " exceeds the bytes that remain");
  return n;
}

ByteReader ByteReader::get_frame() {
  const auto length = get<std::uint64_t>();
  const auto stored = get<std::uint32_t>();
  if (length > remaining())
    fail("frame length " + std::to_string(length) + " exceeds the rest");
  const std::uint64_t at = offset();
  const char* payload = take(length, 1);
  const std::uint32_t computed = crc32(payload, length);
  if (computed != stored)
    raise(error_, source_, at,
          "CRC mismatch (stored " + std::to_string(stored) + ", computed " +
              std::to_string(computed) + ")");
  return ByteReader(std::string_view(payload, length), error_, source_, at);
}

void ByteReader::get_header(std::uint32_t magic, std::uint32_t version,
                            const std::string& what) {
  if (get<std::uint32_t>() != magic) fail("not a trkx " + what);
  const auto got = get<std::uint32_t>();
  if (got != version)
    fail("unsupported " + what + " version " + std::to_string(got));
}

ByteReader ByteReader::get_envelope(std::uint32_t magic,
                                    std::uint32_t version,
                                    const std::string& what) {
  get_header(magic, version, what);
  ByteReader payload = get_frame();
  expect_end();
  return payload;
}

void ByteReader::skip_frame() {
  const auto length = get<std::uint64_t>();
  (void)get<std::uint32_t>();
  if (length > remaining()) fail("frame length exceeds the bytes that remain");
  seek(offset() + length);
}

void ByteReader::seek(std::uint64_t offset) {
  if (offset < base_ || offset - base_ > pos_ + remaining())
    fail("seek out of range");
  pos_ = offset - base_;
  if (is_ == nullptr) return;
  is_->clear();
  is_->seekg(static_cast<std::streamoff>(offset));
  if (!is_->good()) fail("seek failed");
}

void ByteReader::expect_end() const {
  if (remaining() != 0) fail(std::to_string(remaining()) + " trailing bytes");
}

}  // namespace trkx
