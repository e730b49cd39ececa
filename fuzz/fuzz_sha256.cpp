#include <cstdint>

#include "crypto/sha256.hpp"
#include "crypto/sha256_compress.hpp"

/// \file fuzz_sha256.cpp
/// Fuzzes the SHA-256 streaming buffer and the compressor dispatch: for
/// arbitrary bytes, the one-shot digest, a digest streamed in
/// selector-driven chunks and the scalar oracle's digest must agree (and
/// the SHA-NI compressor's, when the CPU has it).
///
/// Input layout: byte 0 is the chunking selector, the rest is the
/// message. Selector 0 feeds the message in one update; any other value
/// seeds a small generator whose chunk sizes run 0..130 bytes, so empty
/// updates, partial blocks and multi-block runs straight from the
/// caller's buffer all occur, in an order the fuzzer controls.

namespace {

using fastbft::ByteView;
using fastbft::crypto::Digest;
using fastbft::crypto::Sha256;
namespace detail = fastbft::crypto::detail;

Digest streamed(std::uint8_t selector, ByteView message) {
  Sha256 h;
  if (selector == 0) {
    h.update(message);
    return h.finalize();
  }
  std::uint32_t state = selector;
  std::size_t off = 0;
  while (off < message.size()) {
    state = state * 1103515245u + 12345u;
    std::size_t take = (state >> 16) % 131;
    if (take > message.size() - off) take = message.size() - off;
    h.update(message.data() + off, take);
    off += take;
  }
  return h.finalize();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::uint8_t selector = size > 0 ? data[0] : 0;
  const ByteView message = size > 0 ? ByteView(data + 1, size - 1) : ByteView();

  const Digest oracle =
      detail::sha256_with(detail::compress_portable, message);
  if (fastbft::crypto::sha256(message) != oracle) __builtin_trap();
  if (streamed(selector, message) != oracle) __builtin_trap();
  if (detail::CompressFn sha_ni = detail::sha_ni_compressor()) {
    if (detail::sha256_with(sha_ni, message) != oracle) __builtin_trap();
  }
  return 0;
}
