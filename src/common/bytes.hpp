#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file bytes.hpp
/// Raw byte-buffer helpers used by the codec and the crypto layer, plus the
/// two non-owning/shared-ownership views the zero-copy hot path is built on:
///
///  * ByteView — a non-owning span of immutable bytes. Decoders, preimage
///    hashing and chunk slicing operate on views so nested decodes
///    (envelope -> wrapped SMR message -> command batch) stop copying.
///  * SharedBytes — shared ownership of one immutable buffer. Network
///    envelopes carry SharedBytes so broadcasting an m-byte payload to n
///    peers allocates the payload once instead of n times.

namespace fastbft {

using Bytes = std::vector<std::uint8_t>;

/// Non-owning view over immutable bytes (a minimal std::span<const
/// uint8_t>). The caller must keep the underlying buffer alive for the
/// view's lifetime. Viewing a temporary is fine for the duration of a call
/// expression (hash it, compare it, encode it); consumers that RETAIN the
/// view across statements guard against temporaries themselves — see the
/// deleted Decoder(Bytes&&).
class ByteView {
 public:
  constexpr ByteView() = default;
  constexpr ByteView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  ByteView(const Bytes& b) : data_(b.data()), size_(b.size()) {}

  constexpr const std::uint8_t* data() const { return data_; }
  constexpr std::size_t size() const { return size_; }
  constexpr bool empty() const { return size_ == 0; }
  constexpr const std::uint8_t* begin() const { return data_; }
  constexpr const std::uint8_t* end() const { return data_ + size_; }
  constexpr std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  /// Subview [offset, offset + count); clamped to the view's bounds.
  constexpr ByteView sub(std::size_t offset, std::size_t count) const {
    if (offset > size_) offset = size_;
    if (count > size_ - offset) count = size_ - offset;
    return ByteView(data_ + offset, count);
  }

  /// Owning copy, for the (cold) paths that must retain the data.
  Bytes to_bytes() const { return Bytes(begin(), end()); }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Process-wide payload materialization counters (relaxed atomics, safe
/// from any thread). One "alloc" is recorded every time a fresh buffer is
/// materialized into a SharedBytes — so a broadcast of an m-byte payload
/// to n peers costs exactly ONE alloc of m bytes while the logical
/// send/byte counts grow by n; alloc_bytes() is the bytes actually copied
/// into payload buffers, and the gap to the network's total_bytes() is
/// the copying that sharing avoided. (Also visible as net::PayloadStats,
/// next to the per-message NetworkStats.)
class PayloadStats {
 public:
  static void record_alloc(std::size_t bytes);
  static std::uint64_t allocs();
  static std::uint64_t alloc_bytes();

  /// Payload materializations by the CALLING thread only. Unlike allocs()
  /// this is race-free to delta across a code region even while other
  /// threads materialize concurrently, which is what lets the
  /// one-alloc-per-broadcast contract be a checked invariant
  /// (FASTBFT_DASSERT in Transport::broadcast*) instead of a test-only
  /// property. Maintained in every build; a thread-local increment next
  /// to two relaxed fetch_adds is noise.
  static std::uint64_t thread_allocs();

  /// Per-consensus-group wrapped-broadcast accounting (sharded SMR): one
  /// group_broadcast is recorded per SMR_WRAPPED broadcast a group frames.
  /// Together with allocs() this makes the amortization claim testable —
  /// a node hosting G groups must still pay exactly one payload
  /// materialization per broadcast, for every group (tests/test_hotpath).
  /// Groups >= kMaxTrackedGroups share the last bucket.
  static constexpr std::uint32_t kMaxTrackedGroups = 16;
  static void record_group_broadcast(std::uint32_t group);
  static std::uint64_t group_broadcasts(std::uint32_t group);

  static void reset();
};

/// Immutable byte buffer with shared ownership. Cheap to copy (refcount
/// bump), so one buffer can sit in n inboxes at once. Converts implicitly
/// to `const Bytes&` and mimics the read-only vector surface, which keeps
/// payload-inspection call sites source-compatible with plain Bytes.
///
/// Materializing a fresh buffer (the Bytes constructor) is counted in
/// PayloadStats so benchmarks can observe allocations avoided by sharing;
/// copying a SharedBytes never allocates payload memory.
class SharedBytes {
 public:
  SharedBytes() : ptr_(empty_buffer()) {}
  SharedBytes(Bytes bytes);  // NOLINT(google-explicit-constructor)
  SharedBytes(std::initializer_list<std::uint8_t> il)
      : SharedBytes(Bytes(il)) {}
  explicit SharedBytes(std::shared_ptr<const Bytes> ptr)
      : ptr_(ptr ? std::move(ptr) : empty_buffer()) {}

  const Bytes& get() const { return *ptr_; }
  operator const Bytes&() const { return *ptr_; }  // NOLINT
  operator ByteView() const { return ByteView(*ptr_); }  // NOLINT

  bool empty() const { return ptr_->empty(); }
  std::size_t size() const { return ptr_->size(); }
  std::uint8_t operator[](std::size_t i) const { return (*ptr_)[i]; }
  Bytes::const_iterator begin() const { return ptr_->begin(); }
  Bytes::const_iterator end() const { return ptr_->end(); }

  /// Number of owners (diagnostics/tests).
  long use_count() const { return ptr_.use_count(); }

 private:
  static const std::shared_ptr<const Bytes>& empty_buffer();

  std::shared_ptr<const Bytes> ptr_;
};

/// Converts an arbitrary string to bytes (no encoding applied).
Bytes to_bytes(std::string_view s);

/// Renders `data` as lowercase hex.
std::string to_hex(ByteView data);

/// Renders the first `max_bytes` of `data` as hex, appending ".." when
/// truncated. Useful for log lines.
std::string to_hex_prefix(ByteView data, std::size_t max_bytes);

/// Parses lowercase/uppercase hex. Returns an empty buffer on malformed
/// input of odd length or non-hex characters.
Bytes from_hex(std::string_view hex);

/// Constant-time-ish equality (length leak only); signatures and digests are
/// compared with this to keep the idiom explicit even in simulation.
bool bytes_equal(ByteView a, ByteView b);
inline bool bytes_equal(const Bytes& a, const Bytes& b) {
  return bytes_equal(ByteView(a), ByteView(b));
}

/// Splits `data` into consecutive chunks of at most `chunk_size` bytes
/// (the last may be shorter). Empty input yields one empty chunk so every
/// payload, including a zero-length one, has a well-defined chunk count.
std::vector<Bytes> split_chunks(const Bytes& data, std::size_t chunk_size);

/// View-based sibling of split_chunks: the chunks alias `data` instead of
/// copying it. Used by the snapshot state-transfer codec to serve chunks
/// straight out of the one retained snapshot body.
std::vector<ByteView> split_chunk_views(ByteView data, std::size_t chunk_size);

}  // namespace fastbft
