#pragma once

#include "crypto/sha256.hpp"

/// \file sha256_compress.hpp
/// Internal: the SHA-256 compression functions behind Sha256, exposed so
/// tests and benchmarks can run each one directly. This is a test seam,
/// not a runtime switch — Sha256 always uses the CPUID-chosen compressor.

namespace fastbft::crypto::detail {

/// Applies the SHA-256 compression function to `nblocks` consecutive
/// 64-byte blocks of `data`, updating `state` in place.
using CompressFn = void (*)(Sha256State& state, const std::uint8_t* data,
                            std::size_t nblocks);

/// Portable scalar compressor: the fallback and the reference oracle.
void compress_portable(Sha256State& state, const std::uint8_t* data,
                       std::size_t nblocks);

/// The x86-64 SHA-NI compressor, or nullptr when this CPU (or build
/// target) lacks it.
CompressFn sha_ni_compressor();

/// The compressor Sha256 uses: SHA-NI when available, else portable.
CompressFn active_compressor();

/// One-shot SHA-256 with every block, padding included, run through
/// `compress`.
Digest sha256_with(CompressFn compress, ByteView data);

}  // namespace fastbft::crypto::detail
