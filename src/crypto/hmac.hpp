#pragma once

#include "crypto/sha256.hpp"

/// \file hmac.hpp
/// HMAC-SHA-256 (RFC 2104). Used both as the MAC underlying the simulation
/// signature scheme and as a keyed PRF for key derivation.

namespace fastbft::crypto {

/// An HMAC key reduced to the SHA-256 midstates of its two pad blocks:
/// `inner` after hashing key ^ ipad, `outer` after key ^ opad. Building one
/// costs those two compressions once; every MAC resumed from it skips
/// them, so a short MAC costs two compressions instead of four.
struct HmacKey {
  explicit HmacKey(ByteView key);

  Sha256::Midstate inner;
  Sha256::Midstate outer;
};

/// Streaming HMAC-SHA-256: the message is fed incrementally, so callers can
/// MAC a multi-part preimage (domain tag, length prefixes, payload) without
/// concatenating it into a temporary buffer first. One instance is
/// single-use: construct, update*, finalize.
class HmacSha256 {
 public:
  explicit HmacSha256(ByteView key) : HmacSha256(HmacKey(key)) {}
  explicit HmacSha256(const HmacKey& key)
      : inner_(key.inner), outer_(key.outer) {}

  void update(const std::uint8_t* data, std::size_t len) {
    inner_.update(data, len);
  }
  void update(ByteView data) { inner_.update(data); }
  void update_u32(std::uint32_t v) { inner_.update_u32(v); }

  Digest finalize();

 private:
  Sha256 inner_;
  Sha256::Midstate outer_;
};

/// Computes HMAC-SHA-256(key, message).
Digest hmac_sha256(ByteView key, ByteView message);

/// Derives a subkey: HMAC(key, label || u64(index)). Deterministic, so the
/// whole cluster key material is reproducible from one master seed.
Bytes derive_key(const Bytes& key, const std::string& label,
                 std::uint64_t index);

}  // namespace fastbft::crypto
