#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "common/assert.hpp"
#include "crypto/sha256_compress.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace fastbft::crypto {

namespace {

alignas(16) constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr Sha256State kInitState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

constexpr std::size_t kBlockSize = 64;

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

#define FASTBFT_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

/// Four rounds: `wk` is four schedule words with their round constants
/// added. Each sha256rnds2 does two rounds on the low 64 bits.
FASTBFT_SHA_NI_TARGET inline void rounds4(__m128i& abef, __m128i& cdgh,
                                          __m128i wk) {
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
}

/// The next four schedule words from the previous sixteen (w16 oldest).
FASTBFT_SHA_NI_TARGET inline __m128i schedule(__m128i w16, __m128i w12,
                                              __m128i w8, __m128i w4) {
  __m128i w = _mm_sha256msg1_epu32(w16, w12);
  w = _mm_add_epi32(w, _mm_alignr_epi8(w4, w8, 4));
  return _mm_sha256msg2_epu32(w, w4);
}

/// Message words 4*quad .. 4*quad+3 of `block`, byte-swapped to big-endian.
FASTBFT_SHA_NI_TARGET inline __m128i load_words(const std::uint8_t* block,
                                                std::size_t quad) {
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * quad)),
      bswap);
}

FASTBFT_SHA_NI_TARGET inline __m128i round_constants(std::size_t quad) {
  return _mm_load_si128(
      reinterpret_cast<const __m128i*>(kRoundConstants.data() + 4 * quad));
}

FASTBFT_SHA_NI_TARGET void compress_sha_ni(Sha256State& state,
                                           const std::uint8_t* data,
                                           std::size_t nblocks) {
  // The instructions want the state as {A,B,E,F} and {C,D,G,H}.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);
  cdgh = _mm_shuffle_epi32(cdgh, 0x1b);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xf0);

  for (; nblocks > 0; --nblocks, data += kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w0 = load_words(data, 0), w1 = load_words(data, 1);
    __m128i w2 = load_words(data, 2), w3 = load_words(data, 3);
    rounds4(abef, cdgh, _mm_add_epi32(w0, round_constants(0)));
    rounds4(abef, cdgh, _mm_add_epi32(w1, round_constants(1)));
    rounds4(abef, cdgh, _mm_add_epi32(w2, round_constants(2)));
    rounds4(abef, cdgh, _mm_add_epi32(w3, round_constants(3)));
    for (std::size_t quad = 4; quad < 16; quad += 4) {
      w0 = schedule(w0, w1, w2, w3);
      rounds4(abef, cdgh, _mm_add_epi32(w0, round_constants(quad)));
      w1 = schedule(w1, w2, w3, w0);
      rounds4(abef, cdgh, _mm_add_epi32(w1, round_constants(quad + 1)));
      w2 = schedule(w2, w3, w0, w1);
      rounds4(abef, cdgh, _mm_add_epi32(w2, round_constants(quad + 2)));
      w3 = schedule(w3, w0, w1, w2);
      rounds4(abef, cdgh, _mm_add_epi32(w3, round_constants(quad + 3)));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1b);
  cdgh = _mm_shuffle_epi32(cdgh, 0xb1);
  abef = _mm_blend_epi16(tmp, cdgh, 0xf0);
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), cdgh);
}

#undef FASTBFT_SHA_NI_TARGET

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return ssse3 && sse41 && sha;
}

#endif  // defined(__x86_64__)

/// Pads the final partial block (`tail_len` < 64 bytes, already in
/// `block`) with 0x80, zeros and the 64-bit big-endian bit length of the
/// `length`-byte message, compresses it and returns the digest.
Digest finish(detail::CompressFn compress, Sha256State& state,
              std::array<std::uint8_t, kBlockSize>& block,
              std::size_t tail_len, std::uint64_t length) {
  block[tail_len++] = 0x80;
  if (tail_len > 56) {
    std::memset(block.data() + tail_len, 0, kBlockSize - tail_len);
    compress(state, block.data(), 1);
    tail_len = 0;
  }
  std::memset(block.data() + tail_len, 0, 56 - tail_len);
  std::uint64_t bit_len = length * 8;
  for (std::size_t i = kBlockSize; i-- > 56;) {
    block[i] = static_cast<std::uint8_t>(bit_len & 0xff);
    bit_len >>= 8;
  }
  compress(state, block.data(), 1);

  Digest digest;
  for (std::size_t i = 0; i < state.size(); ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state[i]);
  }
  return digest;
}

}  // namespace

namespace detail {

void compress_portable(Sha256State& state, const std::uint8_t* data,
                       std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[i * 4]) << 24 |
             static_cast<std::uint32_t>(data[i * 4 + 1]) << 16 |
             static_cast<std::uint32_t>(data[i * 4 + 2]) << 8 |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + s1 + ch + kRoundConstants[static_cast<std::size_t>(i)] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn sha_ni_compressor() {
#if defined(__x86_64__)
  return cpu_has_sha_ni() ? compress_sha_ni : nullptr;
#else
  return nullptr;
#endif
}

CompressFn active_compressor() {
  // Chosen on first use. A function-local static, so hashing from another
  // translation unit's static initialiser still sees a chosen compressor.
  static const CompressFn chosen = [] {
    CompressFn hw = sha_ni_compressor();
    return hw ? hw : compress_portable;
  }();
  return chosen;
}

Digest sha256_with(CompressFn compress, ByteView data) {
  Sha256State state = kInitState;
  const std::size_t nblocks = data.size() / kBlockSize;
  if (nblocks > 0) compress(state, data.data(), nblocks);
  std::array<std::uint8_t, kBlockSize> block;
  const std::size_t tail_len = data.size() - nblocks * kBlockSize;
  if (tail_len > 0) {
    std::memcpy(block.data(), data.data() + nblocks * kBlockSize, tail_len);
  }
  return finish(compress, state, block, tail_len, data.size());
}

}  // namespace detail

Sha256::Sha256() { reset(); }

Sha256::Sha256(const Midstate& from) : state_(from.h), length_(from.length) {}

void Sha256::reset() {
  state_ = kInitState;
  length_ = 0;
  buffer_len_ = 0;
}

Sha256::Midstate Sha256::midstate() const {
  FASTBFT_ASSERT(buffer_len_ == 0, "Sha256 midstate inside a partial block");
  return Midstate{state_, length_};
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  // Also keeps a null `data` (an empty view) away from memcpy.
  if (len == 0) return;
  length_ += len;
  const detail::CompressFn compress = detail::active_compressor();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(len, kBlockSize - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < kBlockSize) return;
    compress(state_, buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer.
  const std::size_t nblocks = len / kBlockSize;
  if (nblocks > 0) {
    compress(state_, data, nblocks);
    data += nblocks * kBlockSize;
    len -= nblocks * kBlockSize;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffer_len_ = len;
  }
}

Digest Sha256::finalize() {
  return finish(detail::active_compressor(), state_, buffer_, buffer_len_,
                length_);
}

void Sha256::update_u32(std::uint32_t v) {
  std::uint8_t le[4];
  for (int i = 0; i < 4; ++i) {
    le[i] = static_cast<std::uint8_t>(v & 0xff);
    v >>= 8;
  }
  update(le, 4);
}

Digest sha256(ByteView data) {
  return detail::sha256_with(detail::active_compressor(), data);
}

Bytes sha256_bytes(ByteView data) {
  Digest d = sha256(data);
  return Bytes(d.begin(), d.end());
}

}  // namespace fastbft::crypto
