#include <gtest/gtest.h>

#include "adversary/recording_transport.hpp"
#include "consensus/replica.hpp"

/// Protocol-level attack tests: crafted adversarial messages delivered to
/// honest replicas must never produce unjustified acks, certificates or
/// decisions. These complement the schedule-level tests in test_faults.cpp
/// by attacking the message validation logic directly.

namespace fastbft::consensus {
namespace {

using adversary::RecordingTransport;

class AttackTest : public ::testing::Test {
 protected:
  // Generalized config: n = 7, f = 2, t = 1.
  QuorumConfig cfg_ = QuorumConfig::create(7, 2, 1);
  std::shared_ptr<const crypto::KeyStore> keys_ =
      std::make_shared<const crypto::KeyStore>(31, 7);
  crypto::Verifier verifier_{keys_};
  LeaderFn leader_ = round_robin_leader(7);
  Value x_ = Value::of_string("X");
  Value y_ = Value::of_string("Y");

  RecordingTransport transport_{1, 7};
  std::optional<DecisionRecord> decided_;

  std::unique_ptr<Replica> replica(ProcessId id) {
    return std::make_unique<Replica>(
        cfg_, id, Value::of_string("own"), transport_,
        crypto::Signer(keys_, id), verifier_, leader_,
        [this](const DecisionRecord& r) { decided_ = r; }, ReplicaOptions{});
  }

  crypto::Signature sign(ProcessId p, const char* dom, const Bytes& m) {
    return crypto::Signer(keys_, p).sign(dom, m);
  }

  ProgressCert cert_for(const Value& x, View v) {
    ProgressCert cert;
    for (ProcessId p = 0; p < cfg_.cert_quorum(); ++p) {
      cert.acks.push_back(
          SignatureEntry{p, sign(p, kDomCertAck, certack_preimage(x, v))});
    }
    return cert;
  }

  /// leader(1) = p0's view-1 proposal of `x`.
  Bytes propose_wire(const Value& x) {
    ProposeMsg msg;
    msg.v = 1;
    msg.x = x;
    msg.tau = sign(0, kDomPropose, propose_preimage(x, 1));
    return msg.serialize();
  }

  std::size_t sent_count(std::uint8_t tag) {
    std::size_t count = 0;
    for (const auto& env : transport_.peek_outbox()) {
      if (!env.payload.empty() && env.payload[0] == tag) ++count;
    }
    return count;
  }
};

// --- Proposal attacks ------------------------------------------------------------

TEST_F(AttackTest, ReplayedProposalFromEarlierViewRejected) {
  auto r = replica(1);
  // A perfectly valid view-1 proposal...
  ProposeMsg msg;
  msg.v = 1;
  msg.x = x_;
  msg.tau = sign(0, kDomPropose, propose_preimage(x_, 1));
  Bytes wire = msg.serialize();
  r->enter_view(3);
  transport_.take_outbox();
  // ...replayed after the replica moved to view 3 (from its original
  // signer, who is NOT leader(3)).
  r->on_message(0, wire);
  EXPECT_EQ(sent_count(net::tags::kAck), 0u);
}

TEST_F(AttackTest, ProposalWithCertForDifferentValueRejected) {
  auto r = replica(1);
  r->enter_view(2);
  transport_.take_outbox();
  ProposeMsg msg;
  msg.v = 2;
  msg.x = y_;
  msg.sigma = cert_for(x_, 2);  // certificate certifies x, proposal says y
  msg.tau = sign(1, kDomPropose, propose_preimage(y_, 2));
  // leader(2) = p1 = the replica itself; deliver "from" p1.
  r->on_message(1, msg.serialize());
  EXPECT_EQ(sent_count(net::tags::kAck), 0u);
}

TEST_F(AttackTest, ProposalWithCertFromWrongViewRejected) {
  auto r = replica(2);
  r->enter_view(3);
  transport_.take_outbox();
  ProposeMsg msg;
  msg.v = 3;
  msg.x = x_;
  msg.sigma = cert_for(x_, 2);  // stale certificate (view 2, not 3)
  msg.tau = sign(2, kDomPropose, propose_preimage(x_, 3));
  r->on_message(2, msg.serialize());
  EXPECT_EQ(sent_count(net::tags::kAck), 0u);
}

TEST_F(AttackTest, RelayedProposalFromNonLeaderRejected) {
  auto r = replica(1);
  // p3 relays the genuine leader proposal — must be ignored, only the
  // leader's own channel counts (prevents replay-through-relay games).
  ProposeMsg msg;
  msg.v = 1;
  msg.x = x_;
  msg.tau = sign(0, kDomPropose, propose_preimage(x_, 1));
  r->on_message(3, msg.serialize());
  EXPECT_EQ(sent_count(net::tags::kAck), 0u);
}

// --- Ack / decision attacks ---------------------------------------------------------

TEST_F(AttackTest, AckFloodFromOneProcessNeverDecides) {
  auto r = replica(1);
  r->on_message(0, propose_wire(x_));
  AckMsg ack{1, xv_preimage_digest(x_, 1)};
  for (int i = 0; i < 100; ++i) r->on_message(3, ack.serialize());
  EXPECT_FALSE(decided_.has_value());
}

TEST_F(AttackTest, FastQuorumMinusOneNeverDecides) {
  auto r = replica(1);
  r->on_message(0, propose_wire(x_));  // own ack is not looped back
  AckMsg ack{1, xv_preimage_digest(x_, 1)};
  // fast quorum = n - t = 6; deliver 5 distinct ackers.
  for (ProcessId p : {0u, 2u, 3u, 4u, 5u}) r->on_message(p, ack.serialize());
  EXPECT_FALSE(decided_.has_value());
  r->on_message(6, ack.serialize());
  EXPECT_TRUE(decided_.has_value());
}

TEST_F(AttackTest, CommitQuorumOfForgedSigsNeverCommits) {
  auto r = replica(1);
  r->on_message(0, propose_wire(x_));
  for (ProcessId p = 0; p < 7; ++p) {
    if (p == 1) continue;
    AckSigMsg m{1, xv_preimage_digest(x_, 1),
                crypto::Signature{Bytes(32, static_cast<uint8_t>(p))}};
    r->on_message(p, m.serialize());
  }
  EXPECT_EQ(sent_count(net::tags::kCommit), 0u);
}

TEST_F(AttackTest, CommitWithMismatchedCertRejected) {
  auto r = replica(1);
  CommitCert cc;
  cc.x = x_;
  cc.v = 1;
  for (ProcessId p = 0; p < cfg_.commit_quorum(); ++p) {
    cc.sigs.push_back(SignatureEntry{p, sign(p, kDomAck, ack_preimage(x_, 1))});
  }
  // The certificate is genuine for (x, 1) but the message claims (y, 1).
  CommitMsg m{1, y_, cc};
  for (ProcessId p = 0; p < 5; ++p) r->on_message(p, m.serialize());
  EXPECT_FALSE(decided_.has_value());
}

TEST_F(AttackTest, SignedAckReplayAcrossViewsRejected) {
  auto r = replica(1);
  // phi_ack covers (x, v); replaying it under view 2 must fail.
  auto phi = sign(3, kDomAck, ack_preimage(x_, 1));
  AckSigMsg m{2, xv_preimage_digest(x_, 2), phi};
  for (ProcessId p = 0; p < 7; ++p) {
    if (p != 1) r->on_message(p, m.serialize());
  }
  EXPECT_EQ(sent_count(net::tags::kCommit), 0u);
}

// --- View-change attacks --------------------------------------------------------------

TEST_F(AttackTest, LeaderIgnoresVoteReplayedIntoWrongView) {
  // p1 is leader of view 2. A valid view-9 vote (phi bound to 9) arrives
  // labeled as a view-2 vote: signature check must fail.
  auto r = replica(1);
  r->enter_view(2);
  transport_.take_outbox();

  VoteMsg m;
  m.v = 2;
  m.record.voter = 3;
  m.record.vote = Vote::nil();
  m.record.phi = sign(3, kDomVote, vote_preimage(m.record.vote, std::nullopt, 9));
  r->on_message(3, m.serialize());

  // Complete the quorum with honest votes; the replayed one must not have
  // been counted, so 2 honest + own vote = 3 < n - f = 5.
  for (ProcessId p : {4u, 5u}) {
    VoteMsg good;
    good.v = 2;
    good.record.voter = p;
    good.record.vote = Vote::nil();
    good.record.phi = sign(p, kDomVote,
                           vote_preimage(good.record.vote, std::nullopt, 2));
    r->on_message(p, good.serialize());
  }
  EXPECT_EQ(sent_count(net::tags::kCertReq), 0u);
}

TEST_F(AttackTest, CertReqFromNonLeaderRejected) {
  auto r = replica(2);
  r->enter_view(2);  // leader(2) = p1
  transport_.take_outbox();
  CertReqMsg req;
  req.v = 2;
  req.x = x_;
  for (ProcessId p : {0u, 3u, 4u, 5u, 6u}) {
    VoteRecord rec;
    rec.voter = p;
    rec.vote = Vote::nil();
    rec.phi = sign(p, kDomVote, vote_preimage(rec.vote, rec.cc, 2));
    req.votes.push_back(rec);
  }
  r->on_message(3, req.serialize());  // sender p3 is not leader(2)
  EXPECT_EQ(sent_count(net::tags::kCertAck), 0u);
  r->on_message(1, req.serialize());  // genuine leader channel
  EXPECT_EQ(sent_count(net::tags::kCertAck), 1u);
}

TEST_F(AttackTest, CertReqWithTooFewVotesRejected) {
  auto r = replica(2);
  r->enter_view(2);
  transport_.take_outbox();
  CertReqMsg req;
  req.v = 2;
  req.x = x_;
  for (ProcessId p : {0u, 3u, 4u, 5u}) {  // only 4 < n - f = 5
    VoteRecord rec;
    rec.voter = p;
    rec.vote = Vote::nil();
    rec.phi = sign(p, kDomVote, vote_preimage(rec.vote, rec.cc, 2));
    req.votes.push_back(rec);
  }
  r->on_message(1, req.serialize());
  EXPECT_EQ(sent_count(net::tags::kCertAck), 0u);
}

TEST_F(AttackTest, LeaderRejectsForgedCertAcks) {
  auto r = replica(1);
  r->enter_view(2);
  auto own = transport_.take_outbox();
  // Deliver own vote + 4 honest nil votes so the leader requests a cert.
  for (const auto& env : own) {
    if (env.payload[0] == net::tags::kVote) r->on_message(1, env.payload);
  }
  for (ProcessId p : {2u, 3u, 4u, 5u}) {
    VoteMsg good;
    good.v = 2;
    good.record.voter = p;
    good.record.vote = Vote::nil();
    good.record.phi = sign(p, kDomVote,
                           vote_preimage(good.record.vote, std::nullopt, 2));
    r->on_message(p, good.serialize());
  }
  ASSERT_GT(sent_count(net::tags::kCertReq), 0u);

  // Flood with forged CertAcks: no proposal may come out.
  for (ProcessId p = 2; p < 7; ++p) {
    CertAckMsg ca{2, Value::of_string("own"),
                  crypto::Signature{Bytes(32, 0x77)}};
    r->on_message(p, ca.serialize());
  }
  EXPECT_EQ(sent_count(net::tags::kPropose), 0u);

  // f + 1 = 3 genuine CertAcks unblock it.
  for (ProcessId p : {2u, 3u, 4u}) {
    CertAckMsg ca{2, Value::of_string("own"),
                  sign(p, kDomCertAck,
                       certack_preimage(Value::of_string("own"), 2))};
    r->on_message(p, ca.serialize());
  }
  EXPECT_EQ(sent_count(net::tags::kPropose), 7u);
}

TEST_F(AttackTest, CommitCertInVoteForcesValueInVivo) {
  // Appendix A.2 case 1, end to end at the replica level: a leader facing
  // equivocation at view w must select the commit-certified value.
  auto r = replica(1);
  r->enter_view(2);
  auto own = transport_.take_outbox();
  for (const auto& env : own) {
    if (env.payload[0] == net::tags::kVote) r->on_message(1, env.payload);
  }

  auto vote_for = [&](ProcessId p, const Value& val) {
    VoteMsg m;
    m.v = 2;
    m.record.voter = p;
    m.record.vote = Vote::of(
        val, 1, ProgressCert{}, sign(0, kDomPropose, propose_preimage(val, 1)));
    m.record.phi = sign(p, kDomVote, vote_preimage(m.record.vote, m.record.cc, 2));
    return m.serialize();
  };

  // Equivocation at view 1 (leader p0 signed both x and y) + one vote
  // carrying a commit certificate for y.
  r->on_message(2, vote_for(2, x_));
  r->on_message(3, vote_for(3, y_));
  {
    CommitCert cc;
    cc.x = y_;
    cc.v = 1;
    for (ProcessId p = 0; p < cfg_.commit_quorum(); ++p) {
      cc.sigs.push_back(SignatureEntry{p, sign(p, kDomAck, ack_preimage(y_, 1))});
    }
    VoteMsg m;
    m.v = 2;
    m.record.voter = 4;
    m.record.vote = Vote::nil();
    m.record.cc = cc;
    m.record.phi = sign(4, kDomVote, vote_preimage(m.record.vote, m.record.cc, 2));
    r->on_message(4, m.serialize());
  }
  {
    VoteMsg m;
    m.v = 2;
    m.record.voter = 5;
    m.record.vote = Vote::nil();
    m.record.phi = sign(5, kDomVote, vote_preimage(m.record.vote, m.record.cc, 2));
    r->on_message(5, m.serialize());
  }

  // 5 votes collected (own nil + x@1 + y@1 + nil+cc + nil) = n - f; the
  // equivocator p0 is not among the voters; selection must force y.
  auto reqs = transport_.take_outbox();
  bool found = false;
  for (const auto& env : reqs) {
    if (env.payload[0] != net::tags::kCertReq) continue;
    auto parsed = parse_message(env.payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(std::get<CertReqMsg>(*parsed).x, y_);
    found = true;
  }
  EXPECT_TRUE(found) << "leader must have requested certification of y";
}

}  // namespace
}  // namespace fastbft::consensus
