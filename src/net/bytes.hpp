// Big-endian byte serialization primitives.
//
// All wire formats in this repository (Ethernet, IPv4, UDP, InfiniBand
// BTH/RETH/...) are network byte order; ByteWriter/ByteReader are the only
// places where endianness is handled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace xmem::net {

/// Thrown when a reader runs past the end of its buffer or a writer is
/// asked for an impossible patch offset.
class BufferError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes big-endian fields either onto the end of a growable vector or
/// into a buffer sized up front (a frame whose length is known before
/// its first header is written). Each field is one bounds check and
/// direct stores, never a per-byte push_back.
class ByteWriter {
 public:
  /// Appends to `out`, growing it as fields are written.
  explicit ByteWriter(std::vector<std::uint8_t>& out) : vec_(&out) {}
  /// Fills `out` from its first byte; writing past its end throws
  /// BufferError.
  explicit ByteWriter(std::span<std::uint8_t> out) : buf_(out) {}

  void u8(std::uint8_t v) { *put(1) = v; }
  void u16(std::uint16_t v) {
    std::uint8_t* p = put(2);
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }
  void u24(std::uint32_t v) {
    std::uint8_t* p = put(3);
    p[0] = static_cast<std::uint8_t>(v >> 16);
    p[1] = static_cast<std::uint8_t>(v >> 8);
    p[2] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) {
    std::uint8_t* p = put(4);
    p[0] = static_cast<std::uint8_t>(v >> 24);
    p[1] = static_cast<std::uint8_t>(v >> 16);
    p[2] = static_cast<std::uint8_t>(v >> 8);
    p[3] = static_cast<std::uint8_t>(v);
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    if (!data.empty()) std::copy(data.begin(), data.end(), put(data.size()));
  }
  void zeros(std::size_t n) {
    if (n > 0) std::fill_n(put(n), n, std::uint8_t{0});
  }

  /// Bytes written so far (the offset of the next field, for patching).
  [[nodiscard]] std::size_t size() const {
    return vec_ != nullptr ? vec_->size() : pos_;
  }
  /// Everything written so far, e.g. for a checksum over a header.
  [[nodiscard]] std::span<const std::uint8_t> written() const {
    return vec_ != nullptr ? std::span<const std::uint8_t>(*vec_)
                           : std::span<const std::uint8_t>(buf_.first(pos_));
  }

  /// Overwrite a previously written 16-bit field (length/checksum fixups).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    if (offset + 2 > size()) {
      throw BufferError("ByteWriter: patch_u16 out of range");
    }
    std::uint8_t* p = (vec_ != nullptr ? vec_->data() : buf_.data()) + offset;
    p[0] = static_cast<std::uint8_t>(v >> 8);
    p[1] = static_cast<std::uint8_t>(v);
  }

 private:
  /// Room for the next `n` bytes.
  std::uint8_t* put(std::size_t n) {
    if (vec_ != nullptr) {
      const std::size_t at = vec_->size();
      vec_->resize(at + n);
      return vec_->data() + at;
    }
    if (n > buf_.size() - pos_) {
      throw BufferError("ByteWriter: write past end of buffer");
    }
    std::uint8_t* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }

  std::vector<std::uint8_t>* vec_ = nullptr;
  std::span<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

/// Reads big-endian fields from a byte span; throws BufferError on
/// underrun so malformed packets surface as exceptions, never as silent
/// garbage.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  std::uint16_t u16() {
    need(2);
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[pos_]) << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u24() {
    need(3);
    const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 8) |
                            data_[pos_ + 2];
    pos_ += 3;
    return v;
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  [[nodiscard]] std::size_t position() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::span<const std::uint8_t> rest() const {
    return data_.subspan(pos_);
  }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw BufferError("ByteReader: read past end of buffer");
    }
  }
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace xmem::net
