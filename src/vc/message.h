// Wire-level message for the virtual cluster, plus a tiny POD serializer.
//
// A message is header bytes plus segments. The header carries everything
// small (protocol fields, tiny buffers copied inline); each segment is a
// shared, read-only DataBuf handle to a large buffer. The in-process fabric
// moves segment handles — refcounts, not doubles — and only a transport that
// crosses a process boundary would serialize them. Byte accounting still
// charges every segment its serialized size (an 8-byte count plus the
// doubles), so wire_bytes() is what such a transport would put on the wire.
//
// Messages are immutable once posted to the fabric (C++ Core Guidelines
// CP.mess): the sender moves the header in and never writes a segment's
// buffer again; a receiver that wants to mutate a segment must own its only
// handle (ptg::TaskCtx::take_input copies otherwise).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/data_buf.h"
#include "support/error.h"

namespace mp::vc {

using Payload = std::vector<uint8_t>;

struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  /// Wire sequence number, stamped by the fabric per source rank (1-based;
  /// 0 = unstamped, e.g. a message pushed straight into a mailbox by a
  /// test). Injected duplicates carry the same seq as the original, which
  /// is what lets the destination mailbox discard them (see Mailbox).
  uint64_t seq = 0;
  Payload header;
  /// Shared buffers riding along with the header. A duplicate of the
  /// message (fabric dup fault) shares these handles with the original.
  std::vector<DataBuf> segments;

  /// Serialized size: the header bytes plus, per segment, its 8-byte
  /// element count and its doubles. What the fabric counts and what its
  /// bandwidth model charges.
  uint64_t wire_bytes() const {
    uint64_t n = header.size();
    for (const DataBuf& s : segments) {
      n += sizeof(uint64_t) + (s ? s->size() * sizeof(double) : 0);
    }
    return n;
  }
};

/// Append-only POD writer.
class WireWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const uint8_t*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_bytes(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  void put_doubles(const double* p, size_t n) {
    put<uint64_t>(n);
    put_bytes(p, n * sizeof(double));
  }

  /// Room for `n` bytes in all: a writer that knows its header's size
  /// reserves it, so building the header allocates once.
  void reserve(size_t n) { buf_.reserve(n); }

  Payload take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Payload buf_;
};

/// Sequential POD reader over a received header.
class WireReader {
 public:
  explicit WireReader(const Payload& p) : data_(p.data()), size_(p.size()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    MP_REQUIRE(pos_ + sizeof(T) <= size_, "WireReader: truncated message");
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::vector<double> get_doubles() {
    const uint64_t n = get<uint64_t>();
    MP_REQUIRE(pos_ + n * sizeof(double) <= size_,
               "WireReader: truncated double array");
    std::vector<double> out(n);
    std::memcpy(out.data(), data_ + pos_, n * sizeof(double));
    pos_ += n * sizeof(double);
    return out;
  }

  bool exhausted() const { return pos_ == size_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace mp::vc
