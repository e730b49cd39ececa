#include "consensus/replica.hpp"

#include <algorithm>
#include <ranges>

#include "common/assert.hpp"
#include "common/logging.hpp"

namespace fastbft::consensus {

namespace {
std::string who(ProcessId id) { return "replica-" + std::to_string(id); }

template <class... F> struct Overloaded : F... { using F::operator()...; };
}  // namespace

Replica::Replica(QuorumConfig cfg, ProcessId id, Value input,
                 net::Transport& transport, crypto::Signer signer,
                 crypto::Verifier verifier, LeaderFn leader_of,
                 DecideCallback on_decide, ReplicaOptions options)
    : cfg_(cfg),
      id_(id),
      input_(std::move(input)),
      transport_(transport),
      signer_(std::move(signer)),
      verifier_(std::move(verifier)),
      leader_of_(std::move(leader_of)),
      on_decide_(std::move(on_decide)),
      options_(options) {
  FASTBFT_ASSERT(!input_.empty(), "consensus inputs must be non-empty");
  FASTBFT_ASSERT(id_ < cfg_.n, "replica id out of range");
}

void Replica::start() {
  if (leader_of_(1) == id_) {
    log_debug(who(id_), "view 1 leader proposing input " + input_.to_string());
    send_proposal(input_, ProgressCert{});
  }
}

void Replica::on_message(ProcessId from, ByteView payload) {
  auto parsed = parse_message(payload);
  if (!parsed) {
    log_debug(who(id_), "dropping malformed payload");
    return;
  }
  if (buffer_if_future(from, *parsed, payload)) return;
  handle(from, *parsed);
}

bool Replica::buffer_if_future(ProcessId from, const Message& msg,
                               ByteView payload) {
  // Acks, signed acks and Commits are decision evidence: they remain
  // meaningful for views we already left or have not reached, so they are
  // never buffered, and neither is the value fetch that serves them. The
  // rest is view-scoped.
  if (!std::holds_alternative<ProposeMsg>(msg) &&
      !std::holds_alternative<VoteMsg>(msg) &&
      !std::holds_alternative<CertReqMsg>(msg) &&
      !std::holds_alternative<CertAckMsg>(msg)) {
    return false;
  }
  View v = message_view(msg);
  if (v <= view_) return false;
  while (future_buffered_total_ >= options_.max_future_buffered) {
    // Full. Evict from the farthest-future view — the synchronizer reaches
    // nearer views first, so their messages are the ones worth keeping. A
    // message farther than everything buffered is dropped outright.
    auto farthest = future_buffer_.rbegin();
    if (farthest == future_buffer_.rend() || farthest->first <= v) {
      return true;  // drop the incoming message
    }
    farthest->second.pop_back();
    --future_buffered_total_;
    if (farthest->second.empty()) {
      future_buffer_.erase(std::prev(future_buffer_.end()));
    }
  }
  future_buffer_[v].emplace_back(from, payload.to_bytes());
  ++future_buffered_total_;
  return true;
}

void Replica::replay_buffered() {
  // Drop buffers for views we skipped past.
  while (!future_buffer_.empty() && future_buffer_.begin()->first < view_) {
    future_buffered_total_ -= future_buffer_.begin()->second.size();
    future_buffer_.erase(future_buffer_.begin());
  }
  auto it = future_buffer_.find(view_);
  if (it == future_buffer_.end()) return;
  std::vector<std::pair<ProcessId, Bytes>> pending = std::move(it->second);
  future_buffered_total_ -= pending.size();
  future_buffer_.erase(it);
  for (auto& [from, payload] : pending) {
    auto parsed = parse_message(payload);
    if (parsed) handle(from, *parsed);
  }
}

void Replica::handle(ProcessId from, const Message& msg) {
  // One arm per alternative: a message type without a handler does not
  // compile.
  std::visit(Overloaded{
                 [&](const ProposeMsg& m) { handle_propose(from, m); },
                 [&](const AckMsg& m) { handle_ack(from, m); },
                 [&](const AckSigMsg& m) { handle_ack_sig(from, m); },
                 [&](const CommitMsg& m) { handle_commit(from, m); },
                 [&](const VoteMsg& m) { handle_vote(from, m); },
                 [&](const CertReqMsg& m) { handle_cert_req(from, m); },
                 [&](const CertAckMsg& m) { handle_cert_ack(from, m); },
                 [&](const ValueReqMsg& m) { handle_value_req(from, m); },
                 [&](const ValueMsg& m) { handle_value(m); },
             },
             msg);
}

void Replica::enter_view(View v) {
  if (v <= view_) return;
  log_debug(who(id_), "entering view " + std::to_string(v));
  view_ = v;
  leader_state_.reset();

  ProcessId leader = leader_of_(v);
  if (leader == id_) {
    leader_state_.emplace();
    leader_state_->v = v;
  }
  send_vote_to(leader, v);
  replay_buffered();
}

void Replica::send_vote_to(ProcessId leader, View v) {
  VoteMsg msg;
  msg.v = v;
  msg.record.voter = id_;
  msg.record.vote = vote_.value_or(Vote::nil());
  if (options_.slow_path && latest_cc_) msg.record.cc = latest_cc_;
  Encoder preimage = Encoder::scratch();
  vote_preimage(preimage, msg.record.vote, msg.record.cc, v);
  msg.record.phi = signer_.sign(kDomVote, preimage.view());
  transport_.send(leader, msg.serialize());
}

// --- Fast path --------------------------------------------------------------

const crypto::Digest& Replica::xv_digest(View v, const Value& x) {
  if (!xv_digest_memo_ || xv_digest_memo_->v != v || xv_digest_memo_->x != x) {
    xv_digest_memo_ = XvMemo{v, x, xv_preimage_digest(x, v)};
  }
  return xv_digest_memo_->d;
}

void Replica::send_proposal(const Value& x, ProgressCert sigma) {
  ProposeMsg msg;
  msg.v = view_;
  msg.x = x;
  msg.sigma = std::move(sigma);
  msg.tau = signer_.sign_digest(kDomPropose, xv_digest(view_, x));
  sent_proposal_ = msg;
  transport_.broadcast(msg.serialize());
}

void Replica::handle_propose(ProcessId from, const ProposeMsg& msg) {
  if (msg.v != view_) return;  // future views buffered, stale ones stale
  if (from != leader_of_(msg.v)) return;
  if (proposal_accepted_.contains(msg.v)) return;
  if (msg.x.empty()) return;
  // Our own broadcast looping back needs no re-verification — but only if
  // it is bit-identical to what we actually sent (a memcmp, not an HMAC);
  // anything else on the self channel takes the full verification path.
  bool own_loopback = from == id_ && sent_proposal_ && msg == *sent_proposal_;
  if (!own_loopback) {
    if (!verifier_.verify_digest(from, kDomPropose, xv_digest(msg.v, msg.x),
                                 msg.tau)) {
      return;
    }
    if (!verify_progress_cert(verifier_, cfg_, msg.x, msg.v, msg.sigma)) {
      return;
    }
  }

  proposal_accepted_.insert(msg.v);
  max_cert_bytes_seen_ = std::max(max_cert_bytes_seen_, msg.sigma.size_bytes());

  // Adopt the vote before acknowledging (Section 3.2: the vote is the last
  // proposal this process acknowledged).
  vote_ = Vote::of(msg.x, msg.v, msg.sigma, msg.tau);

  const XvKey key{msg.v, xv_digest(msg.v, msg.x)};
  transport_.broadcast(AckMsg{msg.v, key.second}.serialize());

  if (options_.slow_path) {
    AckSigMsg sig{msg.v, key.second, signer_.sign_digest(kDomAck, key.second)};
    // Our own signature goes straight into the collection — the loopback
    // copy is ignored in handle_ack_sig, so a forged self acksig can
    // never displace the genuine one.
    ack_sigs_[key].emplace(id_, sig.phi_ack);
    transport_.broadcast(sig.serialize());
  }
  // Peers' acks and acksigs can arrive before a delayed proposal does;
  // their quorums complete now that the digest resolves.
  learn_value(key, msg.x);
}

void Replica::handle_ack(ProcessId from, const AckMsg& msg) {
  if (decision_) return;  // quorum bookkeeping is over
  if (msg.v == kNoView) return;
  const XvKey key{msg.v, msg.d};
  auto& ackers = acks_[key];
  ackers.insert(from);
  if (ackers.size() < cfg_.fast_quorum()) return;
  auto known = known_values_.find(key);
  if (known != known_values_.end()) {
    decide(known->second, msg.v, /*slow=*/false);
  } else {
    request_value(key, ackers);
  }
}

void Replica::learn_value(const XvKey& key, const Value& x) {
  known_values_.try_emplace(key, x);
  auto acked = acks_.find(key);
  if (acked != acks_.end() && acked->second.size() >= cfg_.fast_quorum()) {
    decide(x, key.first, /*slow=*/false);
  }
  maybe_assemble_commit_cert(key);
}

// --- Value fetch: a quorum for a digest we cannot resolve (the other side of
// an equivocation, a proposal that never reached us) has >= quorum - f
// correct members that know the value; one self-certifying reply suffices.

template <typename Holders>
void Replica::request_value(const XvKey& key, const Holders& holders) {
  if (!value_reqs_sent_.insert(key).second) return;
  SharedBytes req = ValueReqMsg{key.first, key.second}.serialize();
  for (ProcessId p : holders) {
    if (p != id_) transport_.send(p, req);
  }
}

void Replica::handle_value_req(ProcessId from, const ValueReqMsg& msg) {
  const XvKey key{msg.v, msg.d};
  auto known = known_values_.find(key);
  if (known == known_values_.end()) return;
  if (!value_replies_sent_.emplace(from, key).second) return;
  transport_.send(from, ValueMsg{msg.v, known->second}.serialize());
}

void Replica::handle_value(const ValueMsg& msg) {
  if (msg.x.empty()) return;
  const XvKey key{msg.v, xv_digest(msg.v, msg.x)};
  if (!value_reqs_sent_.contains(key) || known_values_.contains(key)) return;
  learn_value(key, msg.x);
}

// --- Slow path (Appendix A) -------------------------------------------------

void Replica::handle_ack_sig(ProcessId from, const AckSigMsg& msg) {
  if (!options_.slow_path) return;
  // Our own signature was recorded at signing time (handle_propose); the
  // loopback — or anything forged onto the self channel — is ignored.
  if (from == id_) return;
  if (msg.v == kNoView) return;
  const XvKey key{msg.v, msg.d};
  // Collection continues even after a fast-path decision — the commit
  // certificate this assembles is broadcast exactly once and doubles as
  // the catch-up stream that keeps lagging replicas at the live frontier
  // (see SlotMux). But once OUR Commit went out, further signed acks for
  // this (view, value) buy nothing: skip their HMACs. The signature is
  // over the digest the message carries: no hash, no value needed.
  if (commit_sent_.contains(key)) return;
  if (!verifier_.verify_digest(from, kDomAck, msg.d, msg.phi_ack)) return;
  ack_sigs_[key].emplace(from, msg.phi_ack);
  maybe_assemble_commit_cert(key);
}

void Replica::maybe_assemble_commit_cert(const XvKey& key) {
  auto collected = ack_sigs_.find(key);
  if (collected == ack_sigs_.end()) return;
  const auto& sigs = collected->second;
  if (sigs.size() < cfg_.commit_quorum()) return;
  if (commit_sent_.contains(key)) return;
  auto known = known_values_.find(key);
  if (known == known_values_.end()) {
    request_value(key, std::views::keys(sigs));
    return;
  }
  commit_sent_.insert(key);

  CommitCert cc;
  cc.v = key.first;
  cc.x = known->second;
  for (const auto& [signer, sig] : sigs) {
    cc.sigs.push_back(SignatureEntry{signer, sig});
    if (cc.sigs.size() == cfg_.commit_quorum()) break;
  }
  adopt_cc(cc);

  CommitMsg msg;
  msg.v = cc.v;
  msg.x = cc.x;
  msg.cc = std::move(cc);
  transport_.broadcast(msg.serialize());
}

void Replica::adopt_cc(const CommitCert& cc) {
  if (!latest_cc_ || cc.v > latest_cc_->v) latest_cc_ = cc;
}

void Replica::handle_commit(ProcessId from, const CommitMsg& msg) {
  if (!options_.slow_path) return;
  if (decision_) return;  // see handle_ack_sig
  if (msg.cc.x != msg.x || msg.cc.v != msg.v) return;
  const XvKey key{msg.v, xv_digest(msg.v, msg.x)};
  if (!verify_commit_cert(verifier_, cfg_, msg.cc, &key.second)) return;
  adopt_cc(msg.cc);
  learn_value(key, msg.x);
  auto& senders = commit_senders_[key];
  senders.insert(from);
  if (senders.size() >= cfg_.commit_quorum()) {
    decide(msg.x, msg.v, /*slow=*/true);
  }
}

// --- View change ------------------------------------------------------------

void Replica::handle_vote(ProcessId from, const VoteMsg& msg) {
  if (msg.v != view_ || !leader_state_) return;
  FASTBFT_ASSERT(leader_of_(msg.v) == id_, "leader state in a foreign view");
  if (leader_state_->proposed || leader_state_->cert_requested) return;
  if (msg.record.voter != from) return;
  if (!options_.slow_path && msg.record.cc) return;
  if (!validate_vote_record(verifier_, cfg_, leader_of_, msg.record, msg.v)) {
    log_debug(who(id_), "rejecting invalid vote from " + std::to_string(from));
    return;
  }
  leader_state_->votes.insert({from, msg.record});
  try_select();
}

void Replica::try_select() {
  FASTBFT_ASSERT(leader_state_.has_value(), "try_select without leadership");
  LeaderState& st = *leader_state_;
  if (st.cert_requested) return;

  std::vector<VoteRecord> records;
  records.reserve(st.votes.size());
  for (const auto& [voter, record] : st.votes) records.push_back(record);

  SelectionResult result = run_selection(cfg_, records, leader_of_);
  switch (result.kind) {
    case SelectionResult::Kind::NeedMoreVotes:
      return;
    case SelectionResult::Kind::Forced:
      st.selected = result.value;
      break;
    case SelectionResult::Kind::Free:
      st.selected = input_;
      break;
  }
  st.cert_requested = true;

  log_debug(who(id_), "view " + std::to_string(view_) + " selected " +
                          st.selected.to_string() +
                          (result.equivocation_detected
                               ? " (equivocation by " +
                                     std::to_string(result.equivocator) + ")"
                               : ""));

  CertReqMsg req;
  req.v = view_;
  req.x = st.selected;
  req.votes = std::move(records);
  Bytes payload = req.serialize();
  if (options_.cert_req_broadcast) {
    transport_.broadcast(payload);
    return;
  }
  // At least 2f+1 distinct targets guarantee f+1 correct CertAck
  // responders. Spread from our own id so repeated leaders do not always
  // load the same prefix of the cluster.
  for (std::uint32_t k = 0; k < cfg_.cert_req_targets(); ++k) {
    transport_.send((id_ + k) % cfg_.n, payload);
  }
}

void Replica::handle_cert_req(ProcessId from, const CertReqMsg& msg) {
  if (msg.v != view_) return;
  if (from != leader_of_(msg.v)) return;
  if (msg.x.empty()) return;

  std::set<ProcessId> voters;
  for (const auto& record : msg.votes) {
    if (!voters.insert(record.voter).second) return;  // duplicate voter
    if (!validate_vote_record(verifier_, cfg_, leader_of_, record, msg.v)) {
      return;
    }
  }
  if (!selection_admits(cfg_, msg.votes, leader_of_, msg.x)) {
    log_debug(who(id_), "CertReq from " + std::to_string(from) +
                            " does not justify " + msg.x.to_string());
    return;
  }

  CertAckMsg ack;
  ack.v = msg.v;
  ack.x = msg.x;
  ack.phi_ca = signer_.sign_digest(kDomCertAck, xv_digest(msg.v, msg.x));
  transport_.send(from, ack.serialize());
}

void Replica::handle_cert_ack(ProcessId from, const CertAckMsg& msg) {
  if (msg.v != view_ || !leader_state_) return;
  LeaderState& st = *leader_state_;
  if (!st.cert_requested || st.proposed) return;
  if (msg.x != st.selected) return;
  if (!verifier_.verify_digest(from, kDomCertAck, xv_digest(msg.v, msg.x),
                               msg.phi_ca)) {
    return;
  }
  st.cert_acks.emplace(from, msg.phi_ca);
  if (st.cert_acks.size() < cfg_.cert_quorum()) return;

  ProgressCert sigma;
  for (const auto& [signer, sig] : st.cert_acks) {
    sigma.acks.push_back(SignatureEntry{signer, sig});
    if (sigma.acks.size() == cfg_.cert_quorum()) break;
  }
  st.proposed = true;
  send_proposal(st.selected, std::move(sigma));
}

// --- Decision ---------------------------------------------------------------

void Replica::decide(const Value& x, View v, bool slow) {
  if (decision_) return;
  decision_ = DecisionRecord{x, v, slow};
  log_info(who(id_), "decided " + x.to_string() + " in view " +
                         std::to_string(v) + (slow ? " (slow path)" : ""));
  if (on_decide_) on_decide_(*decision_);
}

}  // namespace fastbft::consensus
