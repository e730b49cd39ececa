#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

/// \file sha256.hpp
/// From-scratch SHA-256 (FIPS 180-4). Implemented locally because the build
/// environment is offline and the library must not depend on a system
/// OpenSSL.
///
/// Two compression functions sit behind one interface. On x86-64 CPUs
/// with the SHA extensions (SHA-NI) blocks go through the hardware
/// instructions; everywhere else through portable scalar code. The choice
/// is made once per process by CPUID, so one binary runs the fast path on
/// every CPU that has it. The scalar code is also the test oracle: both
/// compressors are checked against each other and against the NIST
/// vectors in tests/test_crypto.cpp (see crypto/sha256_compress.hpp).

namespace fastbft::crypto {

inline constexpr std::size_t kDigestSize = 32;
using Digest = std::array<std::uint8_t, kDigestSize>;

/// The eight 32-bit chaining words of SHA-256.
using Sha256State = std::array<std::uint32_t, 8>;

/// Incremental hasher; the usual init/update/final interface. The
/// streaming API is the zero-copy substrate: preimages are fed piecewise
/// (domain, lengths, message) instead of being concatenated into
/// temporaries first.
class Sha256 {
 public:
  /// A hash paused after a whole number of 64-byte blocks. Resuming from
  /// it continues exactly as if its first `length` bytes had been fed
  /// again, without recompressing them (HMAC caches its key pads so).
  struct Midstate {
    Sha256State h;
    std::uint64_t length = 0;
  };

  Sha256();
  explicit Sha256(const Midstate& from);

  void update(const std::uint8_t* data, std::size_t len);
  void update(ByteView data) { update(data.data(), data.size()); }

  /// Little-endian u32, framed exactly like Encoder::u32 — lets streaming
  /// preimage hashing reproduce the canonical length-prefixed encoding.
  void update_u32(std::uint32_t v);

  /// The state so far. Precondition: a multiple of 64 bytes was fed.
  Midstate midstate() const;

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards without `reset()`.
  Digest finalize();

  void reset();

 private:
  Sha256State state_;
  std::uint64_t length_ = 0;  // bytes fed so far
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
};

/// One-shot convenience.
Digest sha256(ByteView data);

/// Digest as a Bytes buffer (handy for codec embedding).
Bytes sha256_bytes(ByteView data);

}  // namespace fastbft::crypto
