#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <random>
#include <set>

#include "engine/adaptive.hpp"
#include "engine/catchup.hpp"
#include "engine/host.hpp"
#include "engine/pending_queue.hpp"
#include "engine/timer_wheel.hpp"

/// Engine policy objects in isolation: the host-agnostic timer wheel
/// (eager cancellation), the pending queue (differential against its
/// ordered-tree predecessor) and the catch-up policy's watermark-based
/// retention trimming plus snapshot retention/state transfer.

namespace fastbft::engine {
namespace {

// --- TimerWheel over the Host seam ------------------------------------------------

TEST(TimerWheelTest, FiresInDeadlineOrderThroughSimHost) {
  sim::Scheduler sched;
  SimHost host(sched);
  TimerWheel wheel(host);
  std::vector<int> order;
  wheel.schedule_after(30, [&] { order.push_back(3); });
  wheel.schedule_after(10, [&] { order.push_back(1); });
  wheel.schedule_after(20, [&] { order.push_back(2); });
  EXPECT_EQ(wheel.pending(), 3u);
  sched.run_until(100);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(wheel.pending(), 0u);
}

TEST(TimerWheelTest, CancelDropsEntryEagerly) {
  sim::Scheduler sched;
  SimHost host(sched);
  TimerWheel wheel(host);
  int fired = 0;
  wheel.schedule_after(10, [&] { fired |= 1; });
  auto far = wheel.schedule_after(1'000'000, [&] { fired |= 2; });
  EXPECT_EQ(wheel.pending(), 2u);

  // Eager drop: the far-deadline entry leaves the wheel at cancel() time
  // instead of pinning a slot until its deadline.
  far.cancel();
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_EQ(wheel.cancelled_dropped(), 1u);
  EXPECT_FALSE(far.active());

  sched.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(wheel.pending(), 0u);

  // Cancelling after the wheel already dropped the entry is a no-op.
  far.cancel();
  EXPECT_EQ(wheel.cancelled_dropped(), 1u);
}

TEST(TimerWheelTest, CancellingEarliestEntryDoesNotLoseLaterOnes) {
  sim::Scheduler sched;
  SimHost host(sched);
  TimerWheel wheel(host);
  bool late_fired = false;
  auto early = wheel.schedule_after(10, [] { FAIL() << "cancelled timer"; });
  wheel.schedule_after(40, [&] { late_fired = true; });
  early.cancel();
  EXPECT_EQ(wheel.pending(), 1u);
  // The wheel's host event was armed for t=10; it fires, finds nothing
  // due, and re-arms for the surviving deadline.
  sched.run_until(100);
  EXPECT_TRUE(late_fired);
}

TEST(TimerWheelTest, HandleOutlivingWheelIsSafeToCancel) {
  sim::Scheduler sched;
  sim::TimerHandle handle;
  {
    SimHost host(sched);
    TimerWheel wheel(host);
    handle = wheel.schedule_after(50, [] { FAIL() << "wheel destroyed"; });
  }
  handle.cancel();  // must not touch the destroyed wheel
  sched.run_to_completion();
}

TEST(TimerWheelTest, TimerArmedWhileFiringRuns) {
  sim::Scheduler sched;
  SimHost host(sched);
  TimerWheel wheel(host);
  bool rearmed_fired = false;
  wheel.schedule_after(10, [&] {
    wheel.schedule_after(10, [&] { rearmed_fired = true; });
  });
  sched.run_until(100);
  EXPECT_TRUE(rearmed_fired);
}

// --- CatchUpPolicy watermark trimming --------------------------------------------

Value val(const std::string& s) { return Value::of_string(s); }

TEST(CatchUpPolicyTest, WatermarkFloorPrunesDecidedValues) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);
  for (Slot s = 1; s <= 6; ++s) {
    policy.record_decided(s, val("v" + std::to_string(s)));
  }
  EXPECT_EQ(policy.decided_count(), 6u);
  EXPECT_EQ(policy.prune_floor(), 1u);

  // Retention is pinned by the slowest process: three fast peers do not
  // move the floor while p3 still reports nothing applied.
  policy.note_watermark(0, 5);
  policy.note_watermark(1, 5);
  policy.note_watermark(2, 7);
  EXPECT_EQ(policy.decided_count(), 6u);

  policy.note_watermark(3, 4);
  EXPECT_EQ(policy.prune_floor(), 4u);
  EXPECT_EQ(policy.decided_count(), 3u);  // slots 4, 5, 6 retained
  EXPECT_EQ(policy.pruned_count(), 3u);
  EXPECT_EQ(policy.decided(3), nullptr);
  ASSERT_NE(policy.decided(4), nullptr);

  // Pruned slots can no longer be served; retained ones can.
  EXPECT_FALSE(policy.reply_for(2, 1).has_value());
  EXPECT_TRUE(policy.reply_for(4, 1).has_value());
}

TEST(CatchUpPolicyTest, StaleAndOutOfRangeGossipIsIgnored) {
  CatchUpPolicy policy(2, 3);
  policy.record_decided(1, val("a"));
  policy.record_decided(2, val("b"));
  for (ProcessId p = 0; p < 3; ++p) policy.note_watermark(p, 3);
  EXPECT_EQ(policy.prune_floor(), 3u);
  EXPECT_EQ(policy.decided_count(), 0u);

  // A reordered old message can never regress the floor.
  policy.note_watermark(1, 2);
  EXPECT_EQ(policy.prune_floor(), 3u);

  // Gossip from an id outside the cluster is dropped.
  policy.note_watermark(99, 100);
  EXPECT_EQ(policy.prune_floor(), 3u);
}

TEST(CatchUpPolicyTest, ClaimStateBelowFloorIsDroppedAndStaysOut) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);
  // One claim parked for slot 1 (below threshold).
  EXPECT_FALSE(policy.add_claim(1, 2, val("x")).has_value());
  for (ProcessId p = 0; p < 4; ++p) policy.note_watermark(p, 2);
  // The parked claim set was trimmed with the floor, and new claims for
  // pruned slots are rejected outright — even a threshold's worth of
  // Byzantine claimants can neither adopt nor re-park state below it.
  EXPECT_FALSE(policy.add_claim(1, 0, val("x")).has_value());
  EXPECT_FALSE(policy.add_claim(1, 3, val("x")).has_value());
  EXPECT_FALSE(policy.ready_claim(1).has_value());
}

// --- PendingQueue dedup horizon ---------------------------------------------------

TEST(PendingQueueTest, AppliedHorizonPruneIsDeterministicBySlotTag) {
  PendingQueue queue;
  auto cmd = [](std::uint64_t seq) {
    return smr::Command::put("k", "v", /*client=*/1, seq);
  };
  EXPECT_TRUE(queue.applied(cmd(1), /*slot=*/5));
  EXPECT_TRUE(queue.applied(cmd(2), /*slot=*/9));
  EXPECT_FALSE(queue.applied(cmd(1), /*slot=*/10)) << "duplicate must skip";

  // Pruning keys on the slot that applied each id, so every replica
  // pruning at the same boundary drops the same records.
  queue.prune_applied_before(8);
  ASSERT_EQ(queue.applied_ids().size(), 1u);
  EXPECT_EQ(queue.applied_ids()[0],
            (PendingQueue::AppliedEntry{{1, 2}, 9}));

  // A pruned id re-applies — identically on every replica, which is what
  // keeps the horizon safe against replays of ancient commands.
  EXPECT_TRUE(queue.applied(cmd(1), /*slot=*/12));
}

// --- PendingQueue against its ordered-tree predecessor ---------------------------

/// The std::set/std::map PendingQueue the hash-indexed one replaced, kept
/// verbatim as the oracle: every observable answer must match it.
class TreePendingQueue {
 public:
  using CommandId = PendingQueue::CommandId;
  using AppliedEntry = PendingQueue::AppliedEntry;

  bool admit(const smr::Command& cmd) {
    if (cmd.kind == smr::OpKind::Noop) return false;
    CommandId id = id_of(cmd);
    if (applied_.contains(id)) return false;
    if (!seen_.insert(id).second) return false;
    pending_.push_back(cmd);
    return true;
  }
  std::vector<smr::Command> claim(Slot slot, std::uint32_t max_batch) {
    std::vector<smr::Command> batch;
    for (const auto& cmd : pending_) {
      CommandId id = id_of(cmd);
      if (applied_.contains(id) || claimed_.contains(id)) continue;
      batch.push_back(cmd);
      claimed_.insert(id);
      claims_by_slot_[slot].push_back(id);
      if (batch.size() >= max_batch) break;
    }
    return batch;
  }
  void release(Slot slot) {
    auto it = claims_by_slot_.find(slot);
    if (it == claims_by_slot_.end()) return;
    for (const CommandId& id : it->second) claimed_.erase(id);
    claims_by_slot_.erase(it);
  }
  bool applied(const smr::Command& cmd, Slot slot) {
    if (!applied_.emplace(id_of(cmd), slot).second) return false;
    trim_applied_prefix();
    return true;
  }
  std::vector<AppliedEntry> applied_ids() const {
    return {applied_.begin(), applied_.end()};
  }
  void restore_applied(const std::vector<AppliedEntry>& entries) {
    applied_ = std::map<CommandId, Slot>(entries.begin(), entries.end());
    trim_applied_prefix();
  }
  void prune_applied_before(Slot floor) {
    for (auto it = applied_.begin(); it != applied_.end();) {
      it = it->second < floor ? applied_.erase(it) : std::next(it);
    }
  }
  void release_below(Slot floor) {
    for (auto it = claims_by_slot_.begin();
         it != claims_by_slot_.end() && it->first < floor;
         it = claims_by_slot_.erase(it)) {
      for (const CommandId& id : it->second) claimed_.erase(id);
    }
  }
  std::size_t pending_count() const { return pending_.size(); }
  std::size_t claimed_count() const { return claimed_.size(); }
  bool has_unclaimed() const {
    for (const auto& cmd : pending_) {
      CommandId id = id_of(cmd);
      if (!applied_.contains(id) && !claimed_.contains(id)) return true;
    }
    return false;
  }

 private:
  static CommandId id_of(const smr::Command& cmd) {
    return {cmd.client_id, cmd.sequence};
  }
  void trim_applied_prefix() {
    while (!pending_.empty() && applied_.contains(id_of(pending_.front()))) {
      pending_.pop_front();
    }
  }

  std::deque<smr::Command> pending_;
  std::set<CommandId> seen_;
  std::map<CommandId, Slot> applied_;
  std::set<CommandId> claimed_;
  std::map<Slot, std::vector<CommandId>> claims_by_slot_;
};

/// Drives a PendingQueue and the oracle with the same calls and checks
/// every return value and every observable after each call.
class DiffQueue {
 public:
  bool admit(const smr::Command& cmd) {
    return same(queue_.admit(cmd), oracle_.admit(cmd), "admit");
  }
  std::vector<smr::Command> claim(Slot slot, std::uint32_t max_batch) {
    return same(queue_.claim(slot, max_batch), oracle_.claim(slot, max_batch),
                "claim");
  }
  bool applied(const smr::Command& cmd, Slot slot) {
    return same(queue_.applied(cmd, slot), oracle_.applied(cmd, slot),
                "applied");
  }
  void release(Slot slot) {
    queue_.release(slot);
    oracle_.release(slot);
    check("release");
  }
  void release_below(Slot floor) {
    queue_.release_below(floor);
    oracle_.release_below(floor);
    check("release_below");
  }
  void prune_applied_before(Slot floor) {
    queue_.prune_applied_before(floor);
    oracle_.prune_applied_before(floor);
    check("prune_applied_before");
  }
  void restore_applied(const std::vector<PendingQueue::AppliedEntry>& ids) {
    queue_.restore_applied(ids);
    oracle_.restore_applied(ids);
    check("restore_applied");
  }
  const PendingQueue& queue() const { return queue_; }
  const TreePendingQueue& oracle() const { return oracle_; }

 private:
  template <typename T>
  T same(T got, const T& want, const char* call) {
    EXPECT_EQ(got, want) << call;
    check(call);
    return got;
  }
  void check(const char* call) {
    EXPECT_EQ(queue_.has_unclaimed(), oracle_.has_unclaimed()) << call;
    EXPECT_EQ(queue_.pending_count(), oracle_.pending_count()) << call;
    EXPECT_EQ(queue_.claimed_count(), oracle_.claimed_count()) << call;
    EXPECT_EQ(queue_.applied_ids(), oracle_.applied_ids()) << call;
  }

  PendingQueue queue_;
  TreePendingQueue oracle_;
};

smr::Command queued_cmd(std::uint64_t client, std::uint64_t seq) {
  return smr::Command::put("k" + std::to_string(client) + "-" +
                               std::to_string(seq),
                           "v", client, seq);
}

std::vector<smr::Command> cmds(std::uint64_t client,
                               std::vector<std::uint64_t> seqs) {
  std::vector<smr::Command> out;
  for (std::uint64_t seq : seqs) out.push_back(queued_cmd(client, seq));
  return out;
}

TEST(PendingQueueDiff, ForeignDecisionReturnsClaimsInFifoOrder) {
  DiffQueue q;
  for (std::uint64_t seq = 1; seq <= 6; ++seq) q.admit(queued_cmd(1, seq));
  EXPECT_EQ(q.claim(1, 3), cmds(1, {1, 2, 3}));
  EXPECT_EQ(q.claim(2, 3), cmds(1, {4, 5, 6}));
  EXPECT_FALSE(q.queue().has_unclaimed());
  // Slot 1 decides another leader's batch: our claims come back, ahead of
  // anything admitted later, in their original order.
  EXPECT_TRUE(q.applied(queued_cmd(2, 1), 1));
  EXPECT_TRUE(q.applied(queued_cmd(1, 5), 1));
  q.release(1);
  q.admit(queued_cmd(1, 7));
  EXPECT_EQ(q.claim(3, 8), cmds(1, {1, 2, 3, 7}));
  q.release(2);
  EXPECT_EQ(q.claim(4, 8), cmds(1, {4, 6}));
  EXPECT_EQ(q.queue().claimed_count(), 6u);
}

TEST(PendingQueueDiff, AppliedCommandMidQueueIsSkippedNotPopped) {
  DiffQueue q;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) q.admit(queued_cmd(1, seq));
  EXPECT_TRUE(q.applied(queued_cmd(1, 3), 1));
  EXPECT_EQ(q.queue().pending_count(), 5u);
  EXPECT_EQ(q.claim(2, 8), cmds(1, {1, 2, 4, 5}));
  EXPECT_TRUE(q.applied(queued_cmd(1, 1), 2));
  EXPECT_TRUE(q.applied(queued_cmd(1, 2), 2));
  EXPECT_EQ(q.queue().pending_count(), 2u);  // 1..3 popped together
  EXPECT_FALSE(q.applied(queued_cmd(1, 2), 3));
  EXPECT_FALSE(q.admit(queued_cmd(1, 4)));
}

TEST(PendingQueueDiff, RestoreAppliedDropsQueuedCopiesAndUnappliesOthers) {
  DiffQueue q;
  for (std::uint64_t seq = 1; seq <= 5; ++seq) q.admit(queued_cmd(1, seq));
  EXPECT_TRUE(q.applied(queued_cmd(1, 4), 3));
  EXPECT_EQ(q.claim(7, 1), cmds(1, {1}));
  // The snapshot set replaces ours: 1 and 2 count as applied (their
  // queued copies go), while 4, applied only locally, is claimable again.
  q.restore_applied({{{1, 1}, 2}, {{1, 2}, 2}, {{9, 9}, 1}});
  EXPECT_EQ(q.queue().pending_count(), 3u);
  EXPECT_EQ(q.claim(8, 8), cmds(1, {3, 4, 5}));
  q.release_below(8);
  EXPECT_EQ(q.queue().claimed_count(), 3u);
  EXPECT_FALSE(q.admit(queued_cmd(9, 9)));
}

TEST(PendingQueueDiff, RetryIsReadmittedOnlyIfNeverQueuedHere) {
  DiffQueue q;
  // Decided elsewhere, never queued here: once pruned, a retry of it is
  // admitted (and re-applies, identically on every replica).
  EXPECT_TRUE(q.applied(queued_cmd(2, 1), 2));
  EXPECT_FALSE(q.admit(queued_cmd(2, 1)));
  // Queued here, applied, pruned: still refused, as before.
  q.admit(queued_cmd(1, 1));
  EXPECT_TRUE(q.applied(queued_cmd(1, 1), 3));
  q.prune_applied_before(5);
  EXPECT_TRUE(q.queue().applied_ids().empty());
  EXPECT_TRUE(q.admit(queued_cmd(2, 1)));
  EXPECT_FALSE(q.admit(queued_cmd(1, 1)));
  EXPECT_EQ(q.claim(6, 4), cmds(2, {1}));
  // A prune that un-applies a command still queued makes it claimable.
  q.admit(queued_cmd(3, 1));
  q.admit(queued_cmd(3, 2));
  EXPECT_TRUE(q.applied(queued_cmd(3, 2), 4));
  EXPECT_EQ(q.claim(7, 4), cmds(3, {1}));
  q.prune_applied_before(5);
  EXPECT_EQ(q.claim(8, 4), cmds(3, {2}));
}

TEST(PendingQueueDiff, SeededRandomCallSequencesMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    auto pick = [&rng](std::uint64_t n) { return rng() % n; };
    DiffQueue q;
    std::vector<smr::Command> claimed;  // what proposals carried
    Slot slot = 1;
    for (int step = 0; step < 400 && !::testing::Test::HasFailure(); ++step) {
      auto any_cmd = [&] { return queued_cmd(1 + pick(3), 1 + pick(40)); };
      switch (pick(15)) {
        case 0: case 1: case 2: case 3:
          q.admit(pick(20) == 0 ? smr::Command::noop() : any_cmd());
          break;
        case 4: case 5: case 6: {
          auto max_batch = static_cast<std::uint32_t>(pick(6));
          auto batch = q.claim(slot + pick(8), max_batch);
          claimed.insert(claimed.end(), batch.begin(), batch.end());
          break;
        }
        case 7: case 8: case 9:
          // Mostly decide commands some proposal carried, sometimes a
          // foreign one.
          q.applied(claimed.empty() || pick(4) == 0
                        ? any_cmd()
                        : claimed[pick(claimed.size())],
                    slot + pick(8));
          break;
        case 10: case 11:
          q.release(slot + pick(8));
          break;
        case 12:
          slot += pick(3);
          q.release_below(slot);
          break;
        case 13:
          q.prune_applied_before(slot + pick(8));
          break;
        default: {  // a snapshot install
          std::vector<PendingQueue::AppliedEntry> ids;
          for (const auto& entry : q.oracle().applied_ids()) {
            if (pick(3) != 0) ids.push_back(entry);
          }
          if (pick(2) == 0) ids.push_back({{1 + pick(3), 1 + pick(40)}, slot});
          std::sort(ids.begin(), ids.end());
          q.restore_applied(ids);
          break;
        }
      }
    }
    ASSERT_FALSE(::testing::Test::HasFailure());
  }
}

// --- CatchUpPolicy snapshot retention & state transfer ---------------------------

smr::Snapshot test_snapshot(Slot applied_below) {
  smr::Snapshot snap;
  snap.applied_below = applied_below;
  snap.applied_commands = applied_below - 1;
  snap.kv_state = to_bytes("kv-state-" + std::to_string(applied_below));
  snap.applied_ids = {{{1, 1}, 1}, {{1, 2}, 2}};
  return snap;
}

TEST(CatchUpPolicySnapshot, SnapshotUnpinsRetentionFromFrozenWatermark) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);
  for (Slot s = 1; s <= 12; ++s) {
    policy.record_decided(s, val("v" + std::to_string(s)));
  }
  // p3 crashed after applying 2 slots: its frozen watermark pins the
  // floor at 3 no matter how far the healthy peers advance.
  policy.note_watermark(3, 3);
  for (ProcessId p = 0; p < 3; ++p) policy.note_watermark(p, 13);
  EXPECT_EQ(policy.prune_floor(), 3u);
  EXPECT_EQ(policy.decided_count(), 10u);

  // A snapshot covering slots < 9 supersedes per-slot retention below it:
  // the floor jumps past the frozen watermark and the values are pruned.
  policy.note_snapshot(9, test_snapshot(9).encode());
  EXPECT_EQ(policy.prune_floor(), 9u);
  EXPECT_EQ(policy.snapshot_floor(), 9u);
  EXPECT_EQ(policy.decided_count(), 4u);  // slots 9..12 retained
  EXPECT_EQ(policy.decided(5), nullptr);

  // A stale (older) snapshot never regresses anything.
  policy.note_snapshot(4, test_snapshot(4).encode());
  EXPECT_EQ(policy.snapshot_floor(), 9u);
}

TEST(CatchUpPolicySnapshot, RequestDedupsButServingAnswersEveryRequest) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4);

  // Nothing to request while the peer's floor does not pass our cursor.
  EXPECT_FALSE(policy.should_request_snapshot(1, 5, 10));
  // First sight of a useful floor: ask. Same floor again: don't.
  EXPECT_TRUE(policy.should_request_snapshot(1, 9, 1));
  EXPECT_FALSE(policy.should_request_snapshot(1, 9, 1));
  // The peer snapshotting further re-opens the request.
  EXPECT_TRUE(policy.should_request_snapshot(1, 17, 1));

  // Serving: nothing before a snapshot exists.
  EXPECT_TRUE(policy.snapshot_chunks().empty());
  policy.note_snapshot(9, test_snapshot(9).encode());
  auto chunks = policy.snapshot_chunks();
  EXPECT_FALSE(chunks.empty());
  EXPECT_EQ(policy.snapshots_served(), 1u);
  // A repeated request is served again: the requester may have crashed
  // mid-transfer and lost its reassembly state — holder-side dedup would
  // strand it forever (requester-side dedup bounds the honest traffic).
  EXPECT_FALSE(policy.snapshot_chunks().empty());
  EXPECT_EQ(policy.snapshots_served(), 2u);
}

TEST(CatchUpPolicySnapshot, InstallNeedsThresholdVouchersAndValidBody) {
  CatchUpPolicy policy(/*threshold=*/2, /*cluster_size=*/4,
                       /*snapshot_chunk_bytes=*/8);
  smr::Snapshot snap = test_snapshot(9);
  Bytes body = snap.encode();
  crypto::Digest digest = crypto::sha256(body);
  auto chunks = split_chunks(body, 8);
  ASSERT_GT(chunks.size(), 1u) << "the fixture must actually chunk";
  auto count = static_cast<std::uint32_t>(chunks.size());

  // All chunks from one sender: full body, digest fine — but a single
  // voucher proves nothing (it could have fabricated the whole snapshot).
  for (std::uint32_t i = 0; i < count; ++i) {
    EXPECT_FALSE(policy
                     .add_snapshot_chunk(/*from=*/1, 9, digest, i, count,
                                         Bytes(chunks[i]), /*next_apply=*/1)
                     .has_value());
  }

  // A second sender vouching for a DIFFERENT digest does not help.
  crypto::Digest other{};
  EXPECT_FALSE(policy
                   .add_snapshot_chunk(2, 9, other, 0, 1, Bytes{0xde, 0xad},
                                       1)
                   .has_value());

  // The second voucher for the right (slot, digest) crosses f + 1: the
  // already-complete body from sender 1 installs, handing back the
  // verified body + digest alongside the decoded snapshot.
  auto installed = policy.add_snapshot_chunk(3, 9, digest, 0, count,
                                             Bytes(chunks[0]), 1);
  ASSERT_TRUE(installed.has_value());
  EXPECT_EQ(installed->snapshot, snap);
  EXPECT_EQ(installed->body, body);
  EXPECT_EQ(installed->digest, digest);
}

TEST(CatchUpPolicySnapshot, StaleAndMalformedChunksAreRejected) {
  CatchUpPolicy policy(/*threshold=*/1, /*cluster_size=*/4);
  smr::Snapshot snap = test_snapshot(5);
  Bytes body = snap.encode();
  crypto::Digest digest = crypto::sha256(body);

  // Covering nothing beyond our cursor: useless, dropped.
  EXPECT_FALSE(policy
                   .add_snapshot_chunk(1, 5, digest, 0, 1, Bytes(body),
                                       /*next_apply=*/5)
                   .has_value());
  // Bogus chunk geometry is rejected outright.
  EXPECT_FALSE(policy.add_snapshot_chunk(1, 5, digest, 1, 1, Bytes(body), 1)
                   .has_value());
  EXPECT_FALSE(policy.add_snapshot_chunk(1, 5, digest, 0, 0, Bytes(body), 1)
                   .has_value());
  // A body that does not hash to the announced digest never installs,
  // even at threshold 1 with a complete reassembly — and the sender is
  // flagged (honest senders cannot produce a failing body, so it is
  // Byzantine; flagging stops it forcing endless re-hashing) so even its
  // later genuine bytes are ignored.
  Bytes tampered(body);
  tampered[0] ^= 0xff;
  EXPECT_FALSE(policy
                   .add_snapshot_chunk(1, 5, digest, 0, 1,
                                       std::move(tampered), 1)
                   .has_value());
  EXPECT_FALSE(policy.add_snapshot_chunk(1, 5, digest, 0, 1, Bytes(body), 1)
                   .has_value());
  // A different, honest sender still installs the same snapshot.
  EXPECT_TRUE(policy.add_snapshot_chunk(2, 5, digest, 0, 1, Bytes(body), 1)
                  .has_value());

  // A chunk exceeding the configured chunk size is flooding (the count
  // cap alone would not bound memory): rejected outright.
  CatchUpPolicy tight(/*threshold=*/1, /*cluster_size=*/4,
                      /*snapshot_chunk_bytes=*/8);
  ASSERT_GT(body.size(), 8u);
  EXPECT_FALSE(tight.add_snapshot_chunk(1, 5, digest, 0, 1, Bytes(body), 1)
                   .has_value());
}

// --- AdaptiveController ------------------------------------------------------
//
// The controller is clockless — every observation carries the caller's
// `now` — so these tests drive it with hand-scripted schedules exactly as
// SimHost would: same observations in, same trajectory out, every run.

/// Feeds `count` decisions of fixed `latency`/`backlog`, one per tick
/// starting at `start`; returns the tick after the last one. With
/// window = 10, an initial feed of 11 (ticks 0..10) and subsequent feeds
/// of 10 each end exactly on an evaluation tick: one scored window per
/// feed, no observations left over to leak into the next window.
TimePoint feed(AdaptiveController& c, TimePoint start, int count,
               Duration latency, std::size_t backlog = 0) {
  TimePoint now = start;
  for (int i = 0; i < count; ++i) c.on_decision(latency, backlog, now++);
  return now;
}

TEST(AdaptiveControllerTest, ResolvesDefaultsFromTargetAndClamp) {
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.max_depth = 8;
  AdaptiveController free_backlog(opts, /*batch_ceiling=*/8,
                                  /*reorder_clamp=*/0);
  EXPECT_EQ(free_backlog.options().window, 400);       // 4 x target
  EXPECT_EQ(free_backlog.options().backlog_target, 16u);  // 2 x max_depth

  AdaptiveController clamped(opts, 8, /*reorder_clamp=*/5);
  EXPECT_EQ(clamped.options().backlog_target, 5u);

  // Starts cautious on depth, greedy on batch: depth is earned from
  // observations, batching costs nothing until proven otherwise.
  EXPECT_EQ(clamped.depth(), opts.min_depth);
  EXPECT_EQ(clamped.batch(), 8u);
}

TEST(AdaptiveControllerTest, GrowsToMaxUnderLightLoad) {
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.min_depth = 1;
  opts.max_depth = 6;
  opts.window = 10;
  opts.min_samples = 2;
  AdaptiveController c(opts, /*batch_ceiling=*/8, /*reorder_clamp=*/0);

  // Healthy windows (latency well under target): +1 depth per window,
  // exactly min -> max in (max - min) windows, then it stays pinned.
  TimePoint now = feed(c, 0, 11, /*latency=*/50);
  EXPECT_EQ(c.depth(), 2u);
  for (std::uint32_t expected = 3; expected <= 6; ++expected) {
    now = feed(c, now, 10, /*latency=*/50);
    EXPECT_EQ(c.depth(), expected);
  }
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 6u);
  EXPECT_EQ(c.max_depth_reached(), 6u);
  EXPECT_EQ(c.backoff_events(), 0u);
  EXPECT_EQ(c.batch(), 8u);
  EXPECT_GE(c.windows_evaluated(), 6u);
}

TEST(AdaptiveControllerTest, BacksOffOnLatencySpike) {
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.max_depth = 8;
  opts.window = 10;
  opts.min_samples = 2;
  opts.breach_windows = 1;  // react on the very first breached window
  opts.probe_windows = 1;   // and regrow immediately once healthy
  AdaptiveController c(opts, /*batch_ceiling=*/8, /*reorder_clamp=*/0);

  TimePoint now = feed(c, 0, 11, /*latency=*/50);
  for (int w = 0; w < 6; ++w) now = feed(c, now, 10, 50);  // 7 grown windows
  ASSERT_EQ(c.depth(), 8u);
  ASSERT_EQ(c.batch(), 8u);

  // One window whose p99 blows the target: multiplicative backoff on the
  // depth at the next evaluation. Batch holds — the convoy behind a
  // stalled slot scales with younger slots, not ops per slot, and
  // shrinking the batch would cut capacity mid-transient.
  now = feed(c, now, 10, /*latency=*/500);
  EXPECT_EQ(c.depth(), 4u);
  EXPECT_EQ(c.batch(), 8u);
  EXPECT_EQ(c.backoff_events(), 1u);

  // Healthy again: additive recovery, one depth step per window.
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 5u);
  EXPECT_EQ(c.batch(), 8u);
  EXPECT_EQ(c.backoff_events(), 1u);
  EXPECT_EQ(c.max_depth_reached(), 8u);  // remembers the deepest run
}

TEST(AdaptiveControllerTest, ShedsDepthBeforeBatch) {
  // The backoff hierarchy: depth all the way to min_depth first, and
  // only then the batch — a breach at the shallowest window means the
  // per-decision work itself is too big.
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.max_depth = 8;
  opts.window = 10;
  opts.min_samples = 2;
  opts.breach_windows = 1;
  opts.probe_windows = 1;
  AdaptiveController c(opts, /*batch_ceiling=*/8, /*reorder_clamp=*/0);

  TimePoint now = feed(c, 0, 11, /*latency=*/50);
  for (int w = 0; w < 6; ++w) now = feed(c, now, 10, 50);
  ASSERT_EQ(c.depth(), 8u);

  now = feed(c, now, 10, 500);  // 8 -> 4
  now = feed(c, now, 10, 500);  // 4 -> 2
  now = feed(c, now, 10, 500);  // 2 -> 1
  EXPECT_EQ(c.depth(), 1u);
  EXPECT_EQ(c.batch(), 8u) << "batch untouched while depth can shed";

  now = feed(c, now, 10, 500);  // at min depth: batch finally halves
  EXPECT_EQ(c.depth(), 1u);
  EXPECT_EQ(c.batch(), 4u);
  EXPECT_EQ(c.backoff_events(), 4u);

  // Healthy windows regrow the batch by ceiling/4 steps.
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.batch(), 6u);
}

TEST(AdaptiveControllerTest, BacklogBreachBacksOffBeforeClampStalls) {
  // The backlog target defaults to the engine's max_reorder_backlog
  // clamp: a backlog past it is a breach even with perfect latency, so
  // the controller sheds depth *before* fill_window hard-stalls.
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.max_depth = 8;
  opts.window = 10;
  opts.min_samples = 2;
  opts.breach_windows = 1;
  opts.probe_windows = 1;
  AdaptiveController c(opts, 8, /*reorder_clamp=*/4);

  TimePoint now = feed(c, 0, 11, /*latency=*/50);
  for (int w = 0; w < 3; ++w) now = feed(c, now, 10, 50);
  ASSERT_EQ(c.depth(), 5u);

  now = feed(c, now, 10, /*latency=*/50, /*backlog=*/5);  // > clamp of 4
  EXPECT_EQ(c.depth(), 2u);
  EXPECT_EQ(c.backoff_events(), 1u);
  EXPECT_EQ(c.backlog_high_water(), 5u);

  // Backlog at the clamp exactly is tolerated (the clamp itself only
  // trips strictly above).
  now = feed(c, now, 10, 50, 4);
  EXPECT_EQ(c.depth(), 3u);
  EXPECT_EQ(c.backoff_events(), 1u);
}

TEST(AdaptiveControllerTest, HoldsOnIsolatedBreachThenBacksOffWhenPersistent) {
  // Default breach_windows = 2: one bad window HOLDS the knobs — a lone
  // view-change stall parks all its outliers in a single window and must
  // not halve a healthy pipeline — while a breach that persists across
  // consecutive windows still earns the multiplicative backoff.
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.max_depth = 8;
  opts.window = 10;
  opts.min_samples = 2;
  AdaptiveController c(opts, /*batch_ceiling=*/8, /*reorder_clamp=*/0);
  ASSERT_EQ(c.options().breach_windows, 2u);

  TimePoint now = feed(c, 0, 11, /*latency=*/50);
  for (int w = 0; w < 6; ++w) now = feed(c, now, 10, 50);
  ASSERT_EQ(c.depth(), 8u);

  // One breached window: hold (no growth, no backoff).
  now = feed(c, now, 10, /*latency=*/500);
  EXPECT_EQ(c.depth(), 8u);
  EXPECT_EQ(c.batch(), 8u);
  EXPECT_EQ(c.backoff_events(), 0u);

  // A healthy window resets the breach streak...
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 8u);
  EXPECT_EQ(c.backoff_events(), 0u);

  // ...so the next lone breach holds again,
  now = feed(c, now, 10, 500);
  EXPECT_EQ(c.depth(), 8u);
  EXPECT_EQ(c.backoff_events(), 0u);

  // but a second breached window in a row is persistent: back off.
  now = feed(c, now, 10, 500);
  EXPECT_EQ(c.depth(), 4u);
  EXPECT_EQ(c.backoff_events(), 1u);

  // The streak restarts after a backoff: the next breached window holds
  // rather than halving again immediately.
  now = feed(c, now, 10, 500);
  EXPECT_EQ(c.depth(), 4u);
  EXPECT_EQ(c.backoff_events(), 1u);
}

TEST(AdaptiveControllerTest, RemembersBreachDepthAndProbesItCautiously) {
  // A backoff halves the depth AND caps growth at the halved value (TCP
  // ssthresh). Plain AIMD would re-climb to the depth that breached
  // within depth/2 windows and re-enter the very convoy it just backed
  // away from; with the cap, deeper depths are reached only through
  // deliberate probes — one step per probe_windows consecutive healthy
  // windows.
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.max_depth = 8;
  opts.window = 10;
  opts.min_samples = 2;
  opts.breach_windows = 1;
  opts.probe_windows = 3;
  AdaptiveController c(opts, /*batch_ceiling=*/8, /*reorder_clamp=*/0);

  TimePoint now = feed(c, 0, 11, /*latency=*/50);
  for (int w = 0; w < 6; ++w) now = feed(c, now, 10, 50);
  ASSERT_EQ(c.depth(), 8u);

  // Breach at depth 8: halve to 4, and cap growth there.
  now = feed(c, now, 10, /*latency=*/500);
  EXPECT_EQ(c.depth(), 4u);
  EXPECT_EQ(c.backoff_events(), 1u);

  // Two healthy windows hold at the cap; the third probes one step.
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 4u) << "healthy but capped: no instant re-climb";
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 4u);
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 5u) << "probe after probe_windows healthy windows";

  // The next probe needs another full countdown.
  now = feed(c, now, 10, 50);
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 5u);
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 6u);
  EXPECT_EQ(c.backoff_events(), 1u) << "probing is not backing off";

  // A breach mid-countdown halves from wherever it struck.
  now = feed(c, now, 10, 50);   // 1 healthy window into the countdown
  now = feed(c, now, 10, 500);  // breach at 6: depth and cap drop to 3
  EXPECT_EQ(c.depth(), 3u);
  EXPECT_EQ(c.backoff_events(), 2u);
  now = feed(c, now, 10, 50);
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 3u) << "countdown restarted at the new cap";
  now = feed(c, now, 10, 50);
  EXPECT_EQ(c.depth(), 4u);
}

TEST(AdaptiveControllerTest, NeverLeavesConfiguredBounds) {
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.min_depth = 2;
  opts.max_depth = 5;
  opts.min_batch = 2;
  opts.window = 10;
  opts.min_samples = 1;
  opts.breach_windows = 1;  // isolated breach windows must still back off
  AdaptiveController c(opts, /*batch_ceiling=*/16, /*reorder_clamp=*/0);

  // Alternating feast and famine, including repeated breaches that would
  // drive depth below min without the floor.
  TimePoint now = feed(c, 0, 1, 10);  // open the first window
  for (int round = 0; round < 20; ++round) {
    Duration latency = (round % 3 == 0) ? 1000 : 10;
    now = feed(c, now, 10, latency);
    EXPECT_GE(c.depth(), 2u);
    EXPECT_LE(c.depth(), 5u);
    EXPECT_GE(c.batch(), 2u);
    EXPECT_LE(c.batch(), 16u);
  }
  EXPECT_GT(c.backoff_events(), 0u);
  EXPECT_LE(c.max_depth_reached(), 5u);
}

TEST(AdaptiveControllerTest, WindowWaitsForMinSamples) {
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.window = 10;
  opts.min_samples = 4;
  AdaptiveController c(opts, 8, 0);

  // Two lonely decisions spread far past the window length: never enough
  // samples, so no window is ever scored and the knobs do not move.
  c.on_decision(50, 0, 0);
  c.on_decision(50, 0, 1000);
  c.on_decision(50, 0, 2000);
  EXPECT_EQ(c.windows_evaluated(), 0u);
  EXPECT_EQ(c.depth(), opts.min_depth);

  // The fourth sample crosses the threshold; the long-running window is
  // finally scored (healthy: those latencies were all fine).
  c.on_decision(50, 0, 3000);
  EXPECT_EQ(c.windows_evaluated(), 1u);
  EXPECT_EQ(c.depth(), opts.min_depth + 1);
}

TEST(AdaptiveControllerTest, TrajectoryIsDeterministic) {
  // Two controllers fed the same schedule agree on every observable at
  // every step — the property SimHost runs lean on.
  AdaptiveOptions opts;
  opts.enabled = true;
  opts.latency_target = 100;
  opts.max_depth = 8;
  opts.window = 7;
  opts.min_samples = 2;
  AdaptiveController a(opts, 8, 3), b(opts, 8, 3);

  std::uint64_t state = 12345;
  TimePoint now = 0;
  for (int i = 0; i < 500; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    Duration latency = 20 + static_cast<Duration>(state % 300);
    std::size_t backlog = static_cast<std::size_t>((state >> 32) % 6);
    a.on_decision(latency, backlog, now);
    b.on_decision(latency, backlog, now);
    now += 1 + static_cast<TimePoint>(state % 5);
    ASSERT_EQ(a.depth(), b.depth()) << "step " << i;
    ASSERT_EQ(a.batch(), b.batch()) << "step " << i;
    ASSERT_EQ(a.windows_evaluated(), b.windows_evaluated()) << "step " << i;
    ASSERT_EQ(a.backoff_events(), b.backoff_events()) << "step " << i;
  }
  EXPECT_GT(a.windows_evaluated(), 0u);
}

}  // namespace
}  // namespace fastbft::engine
