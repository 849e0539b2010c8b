#pragma once

#include <cstring>
#include <functional>
#include <optional>

#include "codec/bytes.hpp"
#include "codec/varint.hpp"

namespace setchain::codec {

/// Bounds-checked sequential reader over a byte view. All accessors return
/// nullopt / false on underflow instead of throwing, because the inputs are
/// untrusted wire data (Byzantine peers may send garbage).
class Reader {
 public:
  explicit Reader(ByteView in) : in_(in) {}

  std::size_t remaining() const { return in_.size() - pos_; }
  bool done() const { return pos_ == in_.size(); }
  std::size_t position() const { return pos_; }

  std::optional<std::uint8_t> u8() {
    if (remaining() < 1) return std::nullopt;
    return in_[pos_++];
  }

  std::optional<std::uint32_t> u32le() {
    if (remaining() < 4) return std::nullopt;
    const std::uint32_t v = read_u32le(in_.subspan(pos_, 4));
    pos_ += 4;
    return v;
  }

  std::optional<std::uint64_t> u64le() {
    if (remaining() < 8) return std::nullopt;
    const std::uint64_t v = read_u64le(in_.subspan(pos_, 8));
    pos_ += 8;
    return v;
  }

  std::optional<std::uint64_t> varint() { return get_varint(in_, pos_); }

  std::optional<ByteView> bytes(std::size_t n) {
    if (remaining() < n) return std::nullopt;
    const ByteView v = in_.subspan(pos_, n);
    pos_ += n;
    return v;
  }

  /// Length-prefixed byte string (varint length).
  std::optional<ByteView> lp_bytes() {
    const auto n = varint();
    if (!n) return std::nullopt;
    return bytes(static_cast<std::size_t>(*n));
  }

 private:
  ByteView in_;
  std::size_t pos_ = 0;
};

/// Sequential writer building a Bytes buffer. A streaming writer (built
/// with a sink) hands its bytes to the sink, in order, in chunks of about
/// kStreamChunk instead of keeping them: its buffer never outgrows one
/// chunk, a run of at least a chunk skips it, and size() counts every
/// byte written. Call flush() after the last write.
class Writer {
 public:
  using Sink = std::function<void(ByteView)>;
  static constexpr std::size_t kStreamChunk = 64u << 10;

  Writer() = default;
  explicit Writer(Sink sink) : sink_(std::move(sink)) { out_.reserve(kStreamChunk); }

  Bytes take() { return std::move(out_); }
  const Bytes& buffer() const { return out_; }
  std::size_t size() const { return streamed_ + out_.size(); }

  /// Hand the buffered bytes to the sink (a no-op without one).
  void flush() {
    if (!sink_ || out_.empty()) return;
    sink_(out_);
    streamed_ += out_.size();
    out_.clear();
  }

  Writer& u8(std::uint8_t v) {
    append_u8(out_, v);
    return spill();
  }
  Writer& u32le(std::uint32_t v) {
    append_u32le(out_, v);
    return spill();
  }
  Writer& u64le(std::uint64_t v) {
    append_u64le(out_, v);
    return spill();
  }
  Writer& varint(std::uint64_t v) {
    put_varint(out_, v);
    return spill();
  }
  Writer& bytes(ByteView v) {
    if (v.size() >= kStreamChunk && sink_) {
      flush();
      sink_(v);
      streamed_ += v.size();
      return *this;
    }
    append(out_, v);
    return spill();
  }
  Writer& lp_bytes(ByteView v) {
    put_varint(out_, v.size());
    return bytes(v);
  }

 private:
  Writer& spill() {
    if (out_.size() >= kStreamChunk && sink_) flush();
    return *this;
  }

  Bytes out_;
  Sink sink_;
  std::size_t streamed_ = 0;  ///< bytes already handed to the sink
};

}  // namespace setchain::codec
