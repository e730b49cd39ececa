#include <gtest/gtest.h>

#include <random>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"
#include "crypto/signer.hpp"

namespace fastbft::crypto {
namespace {

std::string digest_hex(const Digest& d) {
  return to_hex(Bytes(d.begin(), d.end()));
}

// --- SHA-256: FIPS 180-4 / NIST CAVP vectors --------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(digest_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(digest_hex(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      digest_hex(sha256(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Bytes data(1'000'000, static_cast<std::uint8_t>('a'));
  EXPECT_EQ(digest_hex(sha256(data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<std::uint8_t>(i));
  Sha256 h;
  // Uneven chunking crosses block boundaries in awkward places.
  std::size_t offsets[] = {0, 1, 7, 64, 65, 200, 511, 999, 1000};
  for (std::size_t i = 0; i + 1 < std::size(offsets); ++i) {
    h.update(data.data() + offsets[i], offsets[i + 1] - offsets[i]);
  }
  EXPECT_EQ(h.finalize(), sha256(data));
}

TEST(Sha256, ExactBlockBoundaryLengths) {
  // Lengths around the 64-byte block and the 56-byte padding threshold,
  // against digests from an independent SHA-256 (Python's hashlib), since
  // streaming and one-shot share the padding code.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "48d76eab30e51201f4f03ec7a85dab8510fb3409ccd15b54767f9b4435c9f54d"},
      {56, "a8c9906ade2a2eff868fd8f97a570bbc01a13cddc32c3dfdc9a18f0618d69e55"},
      {57, "21d063693fbba44f9ffa966466e2f94d9931b9c9519120c3804ef1ceafd989b5"},
      {63, "d1036ba30d050c74b1a5ab301fa29ff0c607a27cc55af3412577f7e06dbd190b"},
      {64, "ec65c8798ecf95902413c40f7b9e6d4b0068885f5f324aba1f9ba1c8e14aea61"},
      {65, "39cd843414d5125dd308568ace26d04e60b7fa6d2b1a901fb5184fa2eae0598b"},
      {119, "a773085d98f8978583efd89d0f06e29076a12e2e059103ec533f63e1c6f17dd7"},
      {120, "3442eea54f994b0d41c1da867e8347d69fa1a40e2d8a437dcde54dae74504922"},
      {128, "80125c62d518fac6f8b487e1f784c1f12a6acc5d607d554f2e3cccf5342dd29a"},
  };
  for (const auto& [len, hex] : cases) {
    Bytes data(len, 0xab);
    Sha256 h;
    h.update(data);
    EXPECT_EQ(h.finalize(), sha256(data)) << "len=" << len;
    EXPECT_EQ(digest_hex(sha256(data)), hex) << "len=" << len;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  (void)h.finalize();
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(digest_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, EmptyUpdatesOnPartialBuffer) {
  // Zero-length updates, including a null pointer, leave a partly filled
  // block untouched (and must not memcpy from null: UBSan checks that).
  Sha256 h;
  h.update(to_bytes("ab"));
  h.update(nullptr, 0);
  h.update(ByteView{});
  h.update(to_bytes("c"));
  h.update(ByteView{});
  EXPECT_EQ(digest_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, MidstateResumesExactly) {
  Bytes data(200, 0x5a);
  Sha256 h;
  h.update(data.data(), 128);
  Sha256 resumed(h.midstate());
  resumed.update(data.data() + 128, 72);
  EXPECT_EQ(resumed.finalize(), sha256(data));
}

// --- Compressors: scalar oracle against SHA-NI -------------------------------

struct NistVector {
  Bytes message;
  const char* hex;
};

std::vector<NistVector> nist_vectors() {
  return {
      {{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {to_bytes("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {to_bytes("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {Bytes(1'000'000, static_cast<std::uint8_t>('a')),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

Bytes random_bytes(std::mt19937_64& rng, std::size_t len) {
  Bytes out(len);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Streams `data` through Sha256 in random-sized chunks (0 to 150 bytes,
/// so empty updates and multi-block runs both occur).
Digest sha256_chunked(std::mt19937_64& rng, const Bytes& data) {
  Sha256 h;
  std::size_t off = 0;
  while (off < data.size()) {
    std::size_t take = std::min<std::size_t>(rng() % 151, data.size() - off);
    h.update(data.data() + off, take);
    off += take;
  }
  return h.finalize();
}

TEST(Sha256Compress, PortableMatchesNistVectors) {
  for (const auto& v : nist_vectors()) {
    EXPECT_EQ(digest_hex(detail::sha256_with(detail::compress_portable,
                                             v.message)),
              v.hex)
        << "len=" << v.message.size();
  }
}

TEST(Sha256Compress, StreamedMatchesPortableOracle) {
  // Whatever compressor this CPU picked, random chunking through the
  // streaming buffer must agree with the scalar one-shot oracle.
  std::mt19937_64 rng(20260);
  for (std::size_t len = 0; len <= 5000; ++len) {
    Bytes data = random_bytes(rng, len);
    Digest oracle = detail::sha256_with(detail::compress_portable, data);
    ASSERT_EQ(sha256_chunked(rng, data), oracle) << "len=" << len;
    ASSERT_EQ(sha256(data), oracle) << "len=" << len;
  }
}

TEST(Sha256Compress, ShaNiMatchesNistVectors) {
  detail::CompressFn sha_ni = detail::sha_ni_compressor();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  EXPECT_EQ(detail::active_compressor(), sha_ni);
  for (const auto& v : nist_vectors()) {
    EXPECT_EQ(digest_hex(detail::sha256_with(sha_ni, v.message)), v.hex)
        << "len=" << v.message.size();
  }
}

TEST(Sha256Compress, ShaNiMatchesPortable) {
  detail::CompressFn sha_ni = detail::sha_ni_compressor();
  if (sha_ni == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  std::mt19937_64 rng(4231);
  for (std::size_t len = 0; len <= 5000; ++len) {
    Bytes data = random_bytes(rng, len);
    ASSERT_EQ(detail::sha256_with(sha_ni, data),
              detail::sha256_with(detail::compress_portable, data))
        << "len=" << len;
  }
  // Raw compressor calls from arbitrary chaining states (what a resumed
  // midstate hands them), several blocks per call.
  for (int trial = 0; trial < 500; ++trial) {
    Sha256State a;
    for (auto& word : a) word = static_cast<std::uint32_t>(rng());
    Sha256State b = a;
    std::size_t nblocks = 1 + rng() % 8;
    Bytes data = random_bytes(rng, nblocks * 64);
    detail::compress_portable(a, data.data(), nblocks);
    sha_ni(b, data.data(), nblocks);
    ASSERT_EQ(a, b) << "trial=" << trial;
  }
}

// --- HMAC-SHA-256: RFC 4231 test vectors ------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(digest_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      digest_hex(hmac_sha256(to_bytes("Jefe"),
                             to_bytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(digest_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(digest_hex(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - "
                              "Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Rfc4231Case6ThroughCachedKey) {
  // The long key is hashed down before the pads; one HmacKey serves any
  // number of MACs, each resumed from its cached midstates.
  HmacKey key(Bytes(131, 0xaa));
  for (int i = 0; i < 2; ++i) {
    HmacSha256 mac(key);
    mac.update(to_bytes("Test Using Larger Than Block-Size Key - "));
    mac.update(to_bytes("Hash Key First"));
    EXPECT_EQ(digest_hex(mac.finalize()),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
  }
}

// --- Signer / Verifier -------------------------------------------------------

class SignerTest : public ::testing::Test {
 protected:
  std::shared_ptr<const KeyStore> keys_ =
      std::make_shared<const KeyStore>(123, 7);
  Verifier verifier_{keys_};
};

TEST_F(SignerTest, SignVerifyRoundtrip) {
  Signer signer(keys_, 3);
  Bytes msg = to_bytes("propose value 42 in view 9");
  Signature sig = signer.sign("propose", msg);
  EXPECT_TRUE(verifier_.verify(3, "propose", msg, sig));
}

TEST_F(SignerTest, GoldenSignatureBytes) {
  // Pinned wire bytes: the cached-midstate MAC and the hardware
  // compressor must reproduce what the plain scalar HMAC produced.
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_EQ(to_hex(sig.bytes),
            "8cf6912b2947757b2eb5534453f2eb9d337632577846f9a68e7f0d3ca8b574ae");
  EXPECT_TRUE(verifier_.verify(3, "propose", to_bytes("m"), sig));
}

TEST_F(SignerTest, WrongSignerRejected) {
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_FALSE(verifier_.verify(2, "propose", to_bytes("m"), sig));
}

TEST_F(SignerTest, WrongDomainRejected) {
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_FALSE(verifier_.verify(3, "ack", to_bytes("m"), sig));
}

TEST_F(SignerTest, WrongMessageRejected) {
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_FALSE(verifier_.verify(3, "propose", to_bytes("m2"), sig));
}

TEST_F(SignerTest, TamperedSignatureRejected) {
  Signer signer(keys_, 3);
  Bytes msg = to_bytes("m");
  Signature sig = signer.sign("propose", msg);
  sig.bytes[0] ^= 1;
  EXPECT_FALSE(verifier_.verify(3, "propose", msg, sig));
}

TEST_F(SignerTest, TruncatedSignatureRejected) {
  Signer signer(keys_, 3);
  Bytes msg = to_bytes("m");
  Signature sig = signer.sign("propose", msg);
  sig.bytes.pop_back();
  EXPECT_FALSE(verifier_.verify(3, "propose", msg, sig));
}

TEST_F(SignerTest, OutOfRangeSignerRejected) {
  Signer signer(keys_, 3);
  Signature sig = signer.sign("propose", to_bytes("m"));
  EXPECT_FALSE(verifier_.verify(99, "propose", to_bytes("m"), sig));
}

/// What process `id` of a KeyStore built from `seed` signs over a fixed
/// statement: equal secrets give equal bytes, distinct ones distinct bytes.
Bytes signature_of(std::uint64_t seed, ProcessId id) {
  auto keys = std::make_shared<const KeyStore>(seed, 5);
  return Signer(keys, id).sign("propose", to_bytes("m")).bytes;
}

TEST_F(SignerTest, DistinctProcessesDistinctKeys) {
  for (std::uint32_t i = 0; i < 4; ++i) {
    for (std::uint32_t j = i + 1; j < 4; ++j) {
      EXPECT_FALSE(bytes_equal(signature_of(5, i), signature_of(5, j)))
          << i << " vs " << j;
    }
  }
}

TEST_F(SignerTest, DeterministicAcrossKeyStoreInstances) {
  EXPECT_TRUE(bytes_equal(signature_of(77, 2), signature_of(77, 2)));
  EXPECT_FALSE(bytes_equal(signature_of(77, 2), signature_of(78, 2)));
}

TEST(DeriveKey, LabelAndIndexSeparate) {
  Bytes master = to_bytes("master");
  EXPECT_FALSE(bytes_equal(derive_key(master, "a", 0), derive_key(master, "a", 1)));
  EXPECT_FALSE(bytes_equal(derive_key(master, "a", 0), derive_key(master, "b", 0)));
  EXPECT_TRUE(bytes_equal(derive_key(master, "a", 0), derive_key(master, "a", 0)));
}

}  // namespace
}  // namespace fastbft::crypto
