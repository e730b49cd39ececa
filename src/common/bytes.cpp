#include "common/bytes.hpp"

#include <algorithm>
#include <atomic>

namespace fastbft {

namespace {
std::atomic<std::uint64_t> g_payload_allocs{0};
std::atomic<std::uint64_t> g_payload_alloc_bytes{0};
std::atomic<std::uint64_t>
    g_group_broadcasts[PayloadStats::kMaxTrackedGroups]{};

std::uint32_t clamp_group(std::uint32_t group) {
  return std::min(group, PayloadStats::kMaxTrackedGroups - 1);
}

thread_local std::uint64_t t_payload_allocs = 0;
}  // namespace

void PayloadStats::record_alloc(std::size_t bytes) {
  g_payload_allocs.fetch_add(1, std::memory_order_relaxed);
  g_payload_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  ++t_payload_allocs;
}

std::uint64_t PayloadStats::thread_allocs() { return t_payload_allocs; }

std::uint64_t PayloadStats::allocs() {
  return g_payload_allocs.load(std::memory_order_relaxed);
}

std::uint64_t PayloadStats::alloc_bytes() {
  return g_payload_alloc_bytes.load(std::memory_order_relaxed);
}

void PayloadStats::record_group_broadcast(std::uint32_t group) {
  g_group_broadcasts[clamp_group(group)].fetch_add(1,
                                                   std::memory_order_relaxed);
}

std::uint64_t PayloadStats::group_broadcasts(std::uint32_t group) {
  return g_group_broadcasts[clamp_group(group)].load(
      std::memory_order_relaxed);
}

void PayloadStats::reset() {
  g_payload_allocs.store(0, std::memory_order_relaxed);
  g_payload_alloc_bytes.store(0, std::memory_order_relaxed);
  for (auto& counter : g_group_broadcasts) {
    counter.store(0, std::memory_order_relaxed);
  }
}

SharedBytes::SharedBytes(Bytes bytes)
    : ptr_(std::make_shared<const Bytes>(std::move(bytes))) {
  PayloadStats::record_alloc(ptr_->size());
}

const std::shared_ptr<const Bytes>& SharedBytes::empty_buffer() {
  static const std::shared_ptr<const Bytes> empty =
      std::make_shared<const Bytes>();
  return empty;
}

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string to_hex(ByteView data) {
  std::string out(data.size() * 2, '\0');
  for (std::size_t i = 0; i < data.size(); ++i) {
    out[i * 2] = kHexDigits[data[i] >> 4];
    out[i * 2 + 1] = kHexDigits[data[i] & 0x0f];
  }
  return out;
}

std::string to_hex_prefix(ByteView data, std::size_t max_bytes) {
  if (data.size() <= max_bytes) return to_hex(data);
  return to_hex(data.sub(0, max_bytes)) + "..";
}

Bytes from_hex(std::string_view hex) {
  if (hex.size() % 2 != 0) return {};
  Bytes out;
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    int hi = hex_value(hex[i]);
    int lo = hex_value(hex[i + 1]);
    if (hi < 0 || lo < 0) return {};
    out.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return out;
}

bool bytes_equal(ByteView a, ByteView b) {
  if (a.size() != b.size()) return false;
  unsigned diff = 0;
  for (std::size_t i = 0; i < a.size(); ++i) diff |= a[i] ^ b[i];
  return diff == 0;
}

std::vector<Bytes> split_chunks(const Bytes& data, std::size_t chunk_size) {
  std::vector<ByteView> views = split_chunk_views(data, chunk_size);
  std::vector<Bytes> chunks;
  chunks.reserve(views.size());
  for (ByteView v : views) chunks.push_back(v.to_bytes());
  return chunks;
}

std::vector<ByteView> split_chunk_views(ByteView data,
                                        std::size_t chunk_size) {
  if (chunk_size == 0) chunk_size = 1;
  std::vector<ByteView> chunks;
  if (data.empty()) {
    chunks.emplace_back();
    return chunks;
  }
  chunks.reserve((data.size() + chunk_size - 1) / chunk_size);
  for (std::size_t offset = 0; offset < data.size(); offset += chunk_size) {
    chunks.push_back(data.sub(offset, chunk_size));
  }
  return chunks;
}

}  // namespace fastbft
