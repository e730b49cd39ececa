#include "engine/pending_queue.hpp"

#include <algorithm>

namespace fastbft::engine {

bool PendingQueue::admit(const smr::Command& cmd) {
  if (cmd.kind == smr::OpKind::Noop) return false;
  auto [it, fresh] = index_.try_emplace(id_of(cmd), Record{kNone, true});
  if (!fresh) return false;  // admitted or applied before
  pending_.push_back(Entry{cmd, &it->second});
  return true;
}

std::vector<smr::Command> PendingQueue::claim(Slot slot,
                                              std::uint32_t max_batch) {
  std::vector<smr::Command> batch;
  while (has_unclaimed()) {
    Entry& entry = pending_[cursor_ - head_];
    entry.claimed = true;
    batch.push_back(entry.cmd);
    claims_by_slot_[slot].push_back(cursor_);
    ++claimed_count_;
    settle();
    if (batch.size() >= max_batch) break;
  }
  return batch;
}

void PendingQueue::release(Slot slot) {
  if (auto node = claims_by_slot_.extract(slot)) unclaim(node.mapped());
}

bool PendingQueue::applied(const smr::Command& cmd, Slot slot) {
  auto [it, fresh] = index_.try_emplace(id_of(cmd), Record{slot});
  if (!fresh) {
    if (it->second.slot != kNone) return false;
    it->second.slot = slot;
    settle();  // the queued copy may head the queue or sit at the cursor
  }
  applied_.push_back(&*it);
  return true;
}

std::vector<PendingQueue::AppliedEntry> PendingQueue::applied_ids() const {
  std::vector<AppliedEntry> entries;
  for (const auto* r : applied_) entries.emplace_back(r->first, r->second.slot);
  std::sort(entries.begin(), entries.end());
  return entries;
}

void PendingQueue::restore_applied(const std::vector<AppliedEntry>& entries) {
  prune_applied_before(kNone);
  for (const auto& [id, slot] : entries) {
    auto it = index_.try_emplace(id).first;
    if (it->second.slot != kNone) continue;  // the first copy wins
    it->second.slot = slot;
    applied_.push_back(&*it);
  }
  settle();
}

void PendingQueue::prune_applied_before(Slot floor) {
  std::erase_if(applied_, [this, floor](auto* kv) {
    if (kv->second.slot >= floor) return false;
    kv->second.slot = kNone;
    if (!kv->second.admitted) index_.erase(index_.find(kv->first));
    return true;
  });
  cursor_ = head_;  // un-applied commands are claimable again
  settle();
}

void PendingQueue::release_below(Slot floor) {
  std::erase_if(claims_by_slot_, [this, floor](const auto& kv) {
    if (kv.first >= floor) return false;
    unclaim(kv.second);
    return true;
  });
}

void PendingQueue::unclaim(const std::vector<Pos>& positions) {
  for (Pos pos : positions) {
    if (pos - head_ >= pending_.size()) continue;  // popped (unsigned wrap)
    pending_[pos - head_].claimed = false;
    cursor_ = std::min(cursor_, pos);
  }
  claimed_count_ -= positions.size();
  settle();
}

void PendingQueue::settle() {
  while (!pending_.empty() && pending_.front().record->slot != kNone) {
    pending_.pop_front();
    ++head_;
  }
  cursor_ = std::max(cursor_, head_);
  while (cursor_ - head_ < pending_.size() &&
         !pending_[cursor_ - head_].claimable()) {
    ++cursor_;
  }
}

}  // namespace fastbft::engine
