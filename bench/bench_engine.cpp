#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "engine/pending_queue.hpp"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

/// Engine-layer cost of command intake (docs/PERFORMANCE.md, "Engine
/// intake"): engine::PendingQueue driven through the cycle SlotMux runs for
/// every slot — admit the arriving commands, claim a batch for the newest
/// slot, apply the oldest slot's batch and release its claims — with a
/// replica's long-run dedup history already in place.

namespace fastbft::engine {
namespace {

constexpr std::uint32_t kBatch = 8;
constexpr Slot kSlotsInFlight = 16;  // 16 slots x batch 8 = 128 commands

smr::Command command(std::uint64_t seq) {
  return smr::Command::put("key-" + std::to_string(seq % 1024), "value",
                           /*client=*/1 + seq % 4, seq);
}

std::size_t heap_in_use() {
#if defined(__GLIBC__)
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

/// Arg: how many ids the replica applied before the measured cycles.
void BM_PendingQueueSteadyState(benchmark::State& state) {
  const auto history = static_cast<std::uint64_t>(state.range(0));
  PendingQueue queue;
  std::uint64_t next_seq = 1;
  const std::size_t heap_before = heap_in_use();
  for (; next_seq <= history; ++next_seq) {
    smr::Command cmd = command(next_seq);
    queue.admit(cmd);
    queue.applied(cmd, /*slot=*/1);
  }
  if (history > 0) {
    state.counters["heap_bytes_per_id"] =
        static_cast<double>(heap_in_use() - heap_before) /
        static_cast<double>(history);
  }

  // Fill the pipeline: kSlotsInFlight slots each hold a claimed batch.
  Slot slot = 2;
  std::vector<std::vector<smr::Command>> in_flight;
  for (; slot < 2 + kSlotsInFlight; ++slot) {
    for (std::uint32_t i = 0; i < kBatch; ++i) queue.admit(command(next_seq++));
    in_flight.push_back(queue.claim(slot, kBatch));
  }
  Slot oldest = 2;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < kBatch; ++i) {
      benchmark::DoNotOptimize(queue.admit(command(next_seq++)));
    }
    auto& decided = in_flight[(oldest - 2) % kSlotsInFlight];
    for (const smr::Command& cmd : decided) {
      benchmark::DoNotOptimize(queue.applied(cmd, oldest));
    }
    queue.release(oldest++);
    decided = queue.claim(slot++, kBatch);
    benchmark::DoNotOptimize(decided.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch);
}
BENCHMARK(BM_PendingQueueSteadyState)->Arg(0)->Arg(100'000)->Arg(1'000'000);

}  // namespace
}  // namespace fastbft::engine

BENCHMARK_MAIN();
