#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "smr/command.hpp"

/// \file pending_queue.hpp
/// Client-command intake policy for the slot-multiplexed engine: request
/// dedup, at-most-once apply bookkeeping, and *claims* — when several
/// consensus slots are in flight concurrently, each slot's proposal claims
/// a disjoint prefix of the pending queue so a leader pipelines distinct
/// batches instead of proposing the same commands `depth` times. Claims are
/// released when their slot retires (dedup at apply time keeps duplicate
/// proposals harmless either way; claims are purely a throughput measure).
/// A cursor rests on the first claimable command and one hash index holds
/// every id's dedup state, so claim() costs O(batch), has_unclaimed() O(1),
/// and admit, applied and release O(1) however long the replica has run.

namespace fastbft::engine {

class PendingQueue {
 public:
  PendingQueue() = default;
  PendingQueue(const PendingQueue&) = delete;  // entries point into index_
  PendingQueue& operator=(const PendingQueue&) = delete;
  /// (client_id, sequence) — the at-most-once identity of a command.
  using CommandId = std::pair<std::uint64_t, std::uint64_t>;

  /// A dedup record: the id plus the slot that applied it, which is what
  /// makes horizon pruning (and its snapshot export) deterministic.
  using AppliedEntry = std::pair<CommandId, Slot>;

  /// Accepts a client request into the queue. Returns false for noops,
  /// duplicates of anything already seen, and already-applied commands.
  bool admit(const smr::Command& cmd);

  /// Claims the oldest `max_batch` unclaimed, unapplied commands for `slot`.
  /// May return fewer (or none) if the queue is drained or claimed.
  std::vector<smr::Command> claim(Slot slot, std::uint32_t max_batch);

  /// Releases `slot`'s claims (call when the slot's decision was applied).
  /// Its unapplied commands become claimable again at their old places.
  void release(Slot slot);

  /// Records a decided command as applied by `slot`. Returns true on the
  /// first application, false for duplicates (which the caller must skip).
  bool applied(const smr::Command& cmd, Slot slot);

  /// The applied-command dedup records in sorted id order — the
  /// deterministic state a snapshot must carry so an installing replica
  /// skips exactly the duplicates everyone else skipped.
  std::vector<AppliedEntry> applied_ids() const;

  /// REPLACES the dedup state with a snapshot's (queued copies of its ids
  /// are dropped; nothing counts as a fresh application). A wholesale
  /// replacement, not a merge: the snapshot set is the canonical
  /// post-horizon state at its boundary, and an installer that kept ids
  /// the snapshotters already pruned would skip a replayed command that
  /// every other replica re-applies — divergence. The installer only ever
  /// applied slots below the boundary, so nothing of local value is lost.
  void restore_applied(const std::vector<AppliedEntry>& entries);

  /// Drops dedup records applied in slots < `floor`. Called by the engine
  /// at snapshot boundaries with a horizon below the boundary, so the
  /// dedup set stays bounded by the horizon's command volume instead of
  /// growing with the cluster's lifetime. Deterministic: every replica
  /// prunes the same records at the same boundary.
  void prune_applied_before(Slot floor);

  /// Releases the claims of every slot below `floor` (snapshot install
  /// supersedes those slots wholesale).
  void release_below(Slot floor);

  std::size_t pending_count() const { return pending_.size(); }
  std::size_t claimed_count() const { return claimed_count_; }

  /// True when claim() would return at least one command — the signal
  /// the engine opens slots by (slots open on demand).
  bool has_unclaimed() const { return cursor_ < head_ + pending_.size(); }

 private:
  /// An id's dedup state; kNone marks "not applied" (no real slot is ~0).
  static constexpr Slot kNone = ~Slot{0};
  struct Record {
    Slot slot = kNone;      // the slot that applied it (the pruning tag)
    bool admitted = false;  // queued here at some point; never pruned
  };
  /// A queued command; its record (a stable index_ node) says if applied.
  struct Entry {
    smr::Command cmd;
    const Record* record;
    bool claimed = false;
    bool claimable() const { return !claimed && record->slot == kNone; }
  };
  /// Absolute queue positions: p is pending_[p - head_] while queued.
  using Pos = std::uint64_t;
  struct IdHash {  // a client's sequences land in neighbouring buckets
    std::size_t operator()(const CommandId& id) const noexcept {
      return id.first * 0x9E3779B97F4A7C15ULL + id.second;
    }
  };

  static CommandId id_of(const smr::Command& cmd) {
    return {cmd.client_id, cmd.sequence};
  }
  void unclaim(const std::vector<Pos>& positions);
  /// Pops the applied prefix and moves the cursor to the first claimable
  /// entry — every entry before it is claimed or applied.
  void settle();

  std::deque<Entry> pending_;
  Pos head_ = 0;
  Pos cursor_ = 0;
  /// Every id admitted or applied; dropped only when neither holds.
  std::unordered_map<CommandId, Record, IdHash> index_;
  /// The applied records (index_ nodes): prune and export walk only these.
  std::deque<std::pair<const CommandId, Record>*> applied_;
  std::unordered_map<Slot, std::vector<Pos>> claims_by_slot_;
  std::size_t claimed_count_ = 0;
};

}  // namespace fastbft::engine
