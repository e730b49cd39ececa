#include <gtest/gtest.h>
#include <unistd.h>

#include <string>
#include <thread>

#include "runtime/socket_smr.hpp"

/// The pipelined SMR engine on the wall-clock runtime: n in-process
/// SocketSmrServers (runtime::SocketSmrCluster) whose every message
/// crosses loopback TCP — the identical engine code that runs on the
/// deterministic simulator, driven through engine::SocketHost. These
/// tests cover the properties that need a real clock and real sockets —
/// wall-clock view change under a crashed leader, in-slot-order apply
/// with a deep pipeline, watermark-based catch-up GC, and a crashed
/// replica rejoining on its old port through snapshot state transfer.

namespace fastbft::runtime {
namespace {

using namespace std::chrono_literals;

smr::Command cmd(std::uint64_t i) {
  return smr::Command::put("key" + std::to_string(i),
                           "val" + std::to_string(i), /*client=*/1,
                           /*sequence=*/i);
}

void expect_applied_in_slot_order(const std::vector<Slot>& slots,
                                  ProcessId pid) {
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ASSERT_EQ(slots[i], static_cast<Slot>(i + 1))
        << "p" << pid << " applied slots out of order at position " << i;
  }
}

TEST(SocketSmr, HealthyPipelinedRunAppliesInOrder) {
  SocketClusterConfig config;
  config.cfg = consensus::QuorumConfig::create(4, 1, 1);
  config.smr.max_batch = 4;
  config.smr.pipeline_depth = 4;
  config.smr.target_commands = 60;
  SocketSmrCluster cluster(config);
  for (std::uint64_t i = 1; i <= 60; ++i) cluster.submit(cmd(i));
  cluster.start();
  ASSERT_TRUE(cluster.wait_applied(60, 20s));
  cluster.stop();

  for (ProcessId id = 0; id < 4; ++id) {
    EXPECT_GE(cluster.server(id).applied_commands(), 60u) << "p" << id;
    expect_applied_in_slot_order(cluster.applied_slots(id), id);
  }
  EXPECT_TRUE(cluster.correct_stores_agree());
  EXPECT_EQ(cluster.server(0).node().store().get("key7"), "val7");
}

TEST(SocketSmr, LeaderCrashMidRunSurvivedByWallClockViewChange) {
  // The acceptance scenario: n = 6, f = 1, pipeline_depth = 8, one
  // replica crashed mid-run. With rotate_leaders the crashed process is
  // the initial leader of every sixth slot; those slots stall until their
  // wall-clock view-change timeout while later slots keep deciding, so
  // the reorder buffer must hold decisions and every correct replica must
  // still apply >= 200 commands in strict slot order.
  SocketClusterConfig config;
  config.cfg = consensus::QuorumConfig::create(6, 1, 1);
  config.smr.max_batch = 8;
  config.smr.pipeline_depth = 8;
  config.smr.rotate_leaders = true;
  config.smr.target_commands = 240;
  SocketSmrCluster cluster(config);
  for (std::uint64_t i = 1; i <= 240; ++i) cluster.submit(cmd(i));
  cluster.start();

  // Let the pipeline get going, then fail-stop p2 (initial leader of
  // slots 3, 9, 15, ... under rotation) while its slots are in flight.
  ASSERT_TRUE(cluster.wait_applied(24, 30s));
  cluster.crash(2);

  ASSERT_TRUE(cluster.wait_applied(240, 120s))
      << "correct replicas must keep applying through the crash";
  cluster.stop();

  std::uint64_t timers_fired = 0;
  for (ProcessId id = 0; id < 6; ++id) {
    timers_fired += cluster.server(id).network().timers_fired();
  }
  EXPECT_GT(timers_fired, 0u)
      << "progress past the crashed leader requires wall-clock timeouts";
  for (ProcessId id = 0; id < 6; ++id) {
    if (cluster.is_faulty(id)) continue;
    EXPECT_GE(cluster.server(id).applied_commands(), 240u) << "p" << id;
    expect_applied_in_slot_order(cluster.applied_slots(id), id);
  }
  EXPECT_TRUE(cluster.correct_stores_agree());
  EXPECT_EQ(cluster.server(0).node().store().get("key123"), "val123");
}

TEST(SocketSmr, WatermarkGossipBoundsCatchUpRetention) {
  // batch 1 makes many slots; the applied watermark gossiped in wrapped
  // traffic must let every replica prune decided values that the whole
  // cluster already applied, instead of retaining all of them forever.
  SocketClusterConfig config;
  config.cfg = consensus::QuorumConfig::create(4, 1, 1);
  config.smr.max_batch = 1;
  config.smr.pipeline_depth = 4;
  config.smr.target_commands = 120;
  SocketSmrCluster cluster(config);
  for (std::uint64_t i = 1; i <= 120; ++i) cluster.submit(cmd(i));
  cluster.start();
  ASSERT_TRUE(cluster.wait_applied(120, 60s));
  cluster.stop();

  for (ProcessId id = 0; id < 4; ++id) {
    const auto& engine = cluster.server(id).node().engine();
    EXPECT_GT(engine.catchup().pruned_count(), 0u)
        << "p" << id << " never pruned";
    EXPECT_LT(engine.catchup().decided_count(),
              static_cast<std::size_t>(engine.highest_started()))
        << "p" << id << " retains every decided value";
    expect_applied_in_slot_order(cluster.applied_slots(id), id);
  }
}

TEST(SocketSmr, CrashedReplicaRejoinsViaSnapshotStateTransfer) {
  // Crash -> watermark pin -> snapshot-based rejoin, over real sockets and
  // wall-clock time: p3 fail-stops mid-run, the survivors snapshot past
  // its crash point (pruning the slots it would need to replay), and a
  // factory-fresh p3 rejoins mid-run on its old port. It can only recover
  // through SNAPSHOT_REQUEST/RESPONSE state transfer, after which it
  // applies in order and converges to the same store digest as everyone
  // else.
  SocketClusterConfig config;
  config.cfg = consensus::QuorumConfig::create(4, 1, 1);
  config.smr.max_batch = 1;          // one slot per command: many slots
  config.smr.pipeline_depth = 4;
  config.smr.target_commands = 0;    // no stop point: fed until the end
  config.smr.snapshot_interval = 8;
  config.smr.snapshot_chunk_bytes = 128;  // force multi-chunk transfers
  SocketSmrCluster cluster(config);
  for (std::uint64_t i = 1; i <= 60; ++i) cluster.submit(cmd(i));
  cluster.start();

  ASSERT_TRUE(cluster.wait_applied(20, 60s));
  cluster.crash(3);
  Slot crash_slot = cluster.applied_slots(3).empty()
                        ? 1
                        : cluster.applied_slots(3).back();

  // Survivors work well past the crash point — and past several snapshot
  // boundaries — while p3 is down.
  for (std::uint64_t i = 61; i <= 120; ++i) cluster.submit(cmd(i), 0);
  ASSERT_TRUE(cluster.wait_applied(100, 120s));

  ASSERT_TRUE(cluster.restart(3));
  // No new traffic: the rejoiner has to find out on its own how far
  // behind it is.
  ASSERT_TRUE(cluster.wait_applied(120, 120s))
      << "the rejoined replica must catch back up to the whole log";

  // A snapshot alone can satisfy the command count; keep feeding commands
  // until p3 demonstrably applies slots LIVE (post-install) too.
  std::uint64_t next_cmd = 121;
  for (int round = 0;
       round < 1200 && cluster.applied_slots(3).size() < 5; ++round) {
    cluster.submit(cmd(next_cmd++), /*gateway=*/0);
    std::this_thread::sleep_for(25ms);
  }
  ASSERT_GE(cluster.applied_slots(3).size(), 5u)
      << "the rejoined replica never resumed applying live slots";
  ASSERT_TRUE(cluster.wait_applied(next_cmd - 1, 120s));
  cluster.stop();

  // Recovery went through a snapshot install, not slot-by-slot replay.
  EXPECT_GE(cluster.server(3).snapshots_installed(), 1u);
  EXPECT_GE(cluster.server(3).node().engine().snapshots_installed(), 1u);

  // The fresh incarnation's applies start past the snapshot boundary and
  // run strictly in order (jumps only ever forward, at installs).
  const auto slots = cluster.applied_slots(3);
  ASSERT_FALSE(slots.empty());
  EXPECT_GT(slots.front(), 1u) << "a rejoiner must not re-apply from slot 1";
  for (std::size_t i = 1; i < slots.size(); ++i) {
    ASSERT_GT(slots[i], slots[i - 1]) << "p3 applied out of order";
  }

  // All four replicas — including the rejoined one — agree byte-for-byte.
  EXPECT_TRUE(cluster.correct_stores_agree());
  EXPECT_EQ(cluster.server(3).node().store().get("key100"), "val100");

  // Retention unpinned: the survivors pruned decided values past p3's
  // crash point while it was down, instead of retaining every decision
  // from the crash onward.
  for (ProcessId id = 0; id < 3; ++id) {
    const auto& catchup = cluster.server(id).node().engine().catchup();
    EXPECT_GT(catchup.prune_floor(), crash_slot) << "p" << id;
    EXPECT_LT(catchup.decided_count(),
              static_cast<std::size_t>(
                  cluster.server(id).node().engine().highest_started()))
        << "p" << id;
  }
}

TEST(SocketSmr, RestartOnATakenPortFailsAndRetriesOnceItIsFree) {
  // While p3 is down another socket takes its recorded port: restart must
  // report that and leave p3 crashed, not abort. Once the port is free, p3
  // rejoins an idle cluster that pruned everything it applied before the
  // crash — with no snapshot boundary since — so the survivors snapshot
  // on demand for it.
  SocketClusterConfig config;
  config.cfg = consensus::QuorumConfig::create(4, 1, 1);
  config.smr.max_batch = 1;
  config.smr.pipeline_depth = 2;
  config.smr.snapshot_interval = 4;
  SocketSmrCluster cluster(config);
  for (std::uint64_t i = 1; i <= 10; ++i) cluster.submit(cmd(i));
  cluster.start();
  ASSERT_TRUE(cluster.wait_applied(10, 30s));
  cluster.crash(3);

  const net::LoopbackListener squatter =
      net::bind_loopback_listener(cluster.config().peers[3].port);
  ASSERT_GE(squatter.fd, 0);
  EXPECT_FALSE(cluster.restart(3));
  EXPECT_TRUE(cluster.is_faulty(3));
  ::close(squatter.fd);

  ASSERT_TRUE(cluster.restart(3));
  EXPECT_FALSE(cluster.is_faulty(3));
  ASSERT_TRUE(cluster.wait_applied(10, 30s))
      << "the rejoined replica must catch up on an idle cluster";
  cluster.stop();
  EXPECT_GE(cluster.server(3).snapshots_installed(), 1u);
  EXPECT_TRUE(cluster.correct_stores_agree());
  EXPECT_EQ(cluster.server(3).node().store().get("key10"), "val10");
}

TEST(SocketSmr, PreStartCrashIsToleratedFromSlotOne) {
  // Crash-before-start: the faulty process never sends a byte; every slot
  // it would have led view-changes on the wall clock from the beginning.
  SocketClusterConfig config;
  config.cfg = consensus::QuorumConfig::create(6, 1, 1);
  config.smr.max_batch = 4;
  config.smr.pipeline_depth = 2;
  config.smr.rotate_leaders = true;
  config.smr.target_commands = 20;
  SocketSmrCluster cluster(config);
  cluster.crash(0);  // initial leader of slot 1
  for (std::uint64_t i = 1; i <= 20; ++i) cluster.submit(cmd(i));
  cluster.start();
  ASSERT_TRUE(cluster.wait_applied(20, 60s));
  cluster.stop();
  for (ProcessId id = 1; id < 6; ++id) {
    EXPECT_GE(cluster.server(id).applied_commands(), 20u) << "p" << id;
    expect_applied_in_slot_order(cluster.applied_slots(id), id);
  }
  EXPECT_TRUE(cluster.correct_stores_agree());
}

}  // namespace
}  // namespace fastbft::runtime
