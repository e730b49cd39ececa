#include <gtest/gtest.h>

#include "consensus/messages.hpp"

#include "sim/random.hpp"

namespace fastbft::consensus {
namespace {

class MessagesTest : public ::testing::Test {
 protected:
  std::shared_ptr<const crypto::KeyStore> keys_ =
      std::make_shared<const crypto::KeyStore>(3, 8);

  crypto::Signature sig(ProcessId p, const char* dom, const Bytes& m) {
    return crypto::Signer(keys_, p).sign(dom, m);
  }

  ProgressCert cert(const Value& x, View v) {
    ProgressCert c;
    for (ProcessId p = 0; p < 3; ++p) {
      c.acks.push_back(SignatureEntry{p, sig(p, kDomCertAck,
                                             certack_preimage(x, v))});
    }
    return c;
  }

  CommitCert cc(const Value& x, View v) {
    CommitCert c;
    c.x = x;
    c.v = v;
    for (ProcessId p = 0; p < 5; ++p) {
      c.sigs.push_back(SignatureEntry{p, sig(p, kDomAck, ack_preimage(x, v))});
    }
    return c;
  }

  Value x_ = Value::of_string("value-x");
};

template <typename T>
void expect_roundtrip(const T& msg, std::uint8_t expected_tag) {
  Bytes wire = msg.serialize();
  ASSERT_FALSE(wire.empty());
  EXPECT_EQ(wire[0], expected_tag);
  auto parsed = parse_message(wire);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(std::holds_alternative<T>(*parsed));
}

TEST_F(MessagesTest, ProposeRoundtrip) {
  ProposeMsg m;
  m.v = 9;
  m.x = x_;
  m.sigma = cert(x_, 9);
  m.tau = sig(0, kDomPropose, propose_preimage(x_, 9));
  expect_roundtrip(m, net::tags::kPropose);

  auto parsed = parse_message(m.serialize());
  const auto& out = std::get<ProposeMsg>(*parsed);
  EXPECT_EQ(out.v, 9u);
  EXPECT_EQ(out.x, x_);
  EXPECT_EQ(out.sigma, m.sigma);
  EXPECT_EQ(out.tau, m.tau);
}

TEST_F(MessagesTest, AckRoundtrip) {
  AckMsg m{4, xv_preimage_digest(x_, 4)};
  expect_roundtrip(m, net::tags::kAck);
  auto out = std::get<AckMsg>(*parse_message(m.serialize()));
  EXPECT_EQ(out.v, 4u);
  EXPECT_EQ(out.d, m.d);
}

TEST_F(MessagesTest, AckSigRoundtrip) {
  AckSigMsg m{4, xv_preimage_digest(x_, 4),
              sig(2, kDomAck, ack_preimage(x_, 4))};
  expect_roundtrip(m, net::tags::kAckSig);
  auto out = std::get<AckSigMsg>(*parse_message(m.serialize()));
  EXPECT_EQ(out.d, m.d);
  EXPECT_EQ(out.phi_ack, m.phi_ack);
}

TEST_F(MessagesTest, AckSizeIsIndependentOfTheValue) {
  Value big(Bytes(4096, 0x5a));
  AckMsg small_ack{4, xv_preimage_digest(x_, 4)};
  AckMsg big_ack{4, xv_preimage_digest(big, 4)};
  EXPECT_EQ(big_ack.serialize().size(), small_ack.serialize().size());
}

TEST_F(MessagesTest, ValueReqAndValueRoundtrip) {
  ValueReqMsg req{4, xv_preimage_digest(x_, 4)};
  expect_roundtrip(req, net::tags::kValueReq);
  EXPECT_EQ(std::get<ValueReqMsg>(*parse_message(req.serialize())).d, req.d);

  ValueMsg value{4, x_};
  expect_roundtrip(value, net::tags::kValue);
  EXPECT_EQ(std::get<ValueMsg>(*parse_message(value.serialize())).x, x_);
}

TEST_F(MessagesTest, MalformedDigestLengthRejected) {
  // [tag][v u64][len u32][digest]: a digest of any length but 32 must not
  // parse, in every message that carries one.
  for (std::uint8_t tag : {net::tags::kAck, net::tags::kAckSig,
                           net::tags::kValueReq}) {
    for (std::size_t len : {0u, 31u, 33u}) {
      Encoder enc;
      enc.u8(tag);
      enc.u64(4);
      enc.bytes(Bytes(len, 0xab));
      if (tag == net::tags::kAckSig) {
        sig(2, kDomAck, ack_preimage(x_, 4)).encode(enc);
      }
      EXPECT_FALSE(parse_message(enc.view()).has_value())
          << "tag " << int(tag) << " len " << len;
    }
  }
}

TEST_F(MessagesTest, CommitRoundtrip) {
  CommitMsg m;
  m.v = 4;
  m.x = x_;
  m.cc = cc(x_, 4);
  expect_roundtrip(m, net::tags::kCommit);
  auto out = std::get<CommitMsg>(*parse_message(m.serialize()));
  EXPECT_EQ(out.cc, m.cc);
}

TEST_F(MessagesTest, VoteRoundtripNil) {
  VoteMsg m;
  m.v = 6;
  m.record.voter = 3;
  m.record.vote = Vote::nil();
  m.record.phi = sig(3, kDomVote, vote_preimage(m.record.vote, std::nullopt, 6));
  expect_roundtrip(m, net::tags::kVote);
  auto out = std::get<VoteMsg>(*parse_message(m.serialize()));
  EXPECT_TRUE(out.record.vote.is_nil);
  EXPECT_FALSE(out.record.cc.has_value());
}

TEST_F(MessagesTest, VoteRoundtripFull) {
  VoteMsg m;
  m.v = 6;
  m.record.voter = 3;
  m.record.vote = Vote::of(x_, 5, cert(x_, 5),
                           sig(4, kDomPropose, propose_preimage(x_, 5)));
  m.record.cc = cc(x_, 4);
  m.record.phi = sig(3, kDomVote, vote_preimage(m.record.vote, m.record.cc, 6));
  expect_roundtrip(m, net::tags::kVote);
  auto out = std::get<VoteMsg>(*parse_message(m.serialize()));
  EXPECT_EQ(out.record, m.record);
}

TEST_F(MessagesTest, CertReqRoundtrip) {
  CertReqMsg m;
  m.v = 6;
  m.x = x_;
  for (ProcessId p = 0; p < 5; ++p) {
    VoteRecord r;
    r.voter = p;
    r.vote = Vote::nil();
    r.phi = sig(p, kDomVote, vote_preimage(r.vote, std::nullopt, 6));
    m.votes.push_back(r);
  }
  expect_roundtrip(m, net::tags::kCertReq);
  auto out = std::get<CertReqMsg>(*parse_message(m.serialize()));
  EXPECT_EQ(out.votes.size(), 5u);
  EXPECT_EQ(out.votes[4], m.votes[4]);
}

TEST_F(MessagesTest, CertAckRoundtrip) {
  CertAckMsg m{6, x_, sig(1, kDomCertAck, certack_preimage(x_, 6))};
  expect_roundtrip(m, net::tags::kCertAck);
}

TEST_F(MessagesTest, MessageViewExtraction) {
  AckMsg ack{17, xv_preimage_digest(x_, 17)};
  auto parsed = parse_message(ack.serialize());
  EXPECT_EQ(message_view(*parsed), 17u);
}

// --- Robustness ----------------------------------------------------------------

TEST_F(MessagesTest, EmptyPayloadRejected) {
  EXPECT_FALSE(parse_message({}).has_value());
}

TEST_F(MessagesTest, UnknownTagRejected) {
  EXPECT_FALSE(parse_message(Bytes{0x7f, 0x01, 0x02}).has_value());
}

TEST_F(MessagesTest, TrailingBytesRejected) {
  Bytes wire = AckMsg{4, xv_preimage_digest(x_, 4)}.serialize();
  wire.push_back(0x00);
  EXPECT_FALSE(parse_message(wire).has_value());
}

TEST_F(MessagesTest, TruncationRejectedAtEveryLength) {
  ProposeMsg m;
  m.v = 9;
  m.x = x_;
  m.sigma = cert(x_, 9);
  m.tau = sig(0, kDomPropose, propose_preimage(x_, 9));
  Bytes wire = m.serialize();
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_FALSE(parse_message(truncated).has_value()) << "len=" << len;
  }
}

TEST_F(MessagesTest, VoteWithCertTruncationRejectedAtEveryLength) {
  // The vote path exercises the nested decoders (Vote, ProgressCert,
  // optional CommitCert) that ProposeMsg truncation does not reach.
  VoteMsg m;
  m.v = 7;
  m.record.voter = 2;
  m.record.vote = Vote::of(x_, 5, cert(x_, 5),
                           sig(0, kDomPropose, propose_preimage(x_, 5)));
  m.record.cc = cc(x_, 5);
  m.record.phi = sig(2, kDomVote, vote_preimage(m.record.vote, m.record.cc, 7));
  Bytes wire = m.serialize();
  ASSERT_TRUE(parse_message(wire).has_value());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_FALSE(parse_message(truncated).has_value()) << "len=" << len;
  }
}

TEST_F(MessagesTest, CommitTruncationRejectedAtEveryLength) {
  CommitMsg m;
  m.v = 4;
  m.x = x_;
  m.cc = cc(x_, 4);
  Bytes wire = m.serialize();
  ASSERT_TRUE(parse_message(wire).has_value());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(len));
    EXPECT_FALSE(parse_message(truncated).has_value()) << "len=" << len;
  }
}

TEST_F(MessagesTest, DecodeFromBytesRequiresFullConsumption) {
  // decode_from_bytes only borrows its buffer (the rvalue overloads of it
  // and of Decoder are deleted, so temporaries cannot dangle) and must
  // reject buffers with trailing bytes after a successful field decode.
  Bytes wire = encode_to_bytes(x_);
  EXPECT_TRUE(decode_from_bytes<Value>(wire).has_value());
  wire.push_back(0xab);
  EXPECT_FALSE(decode_from_bytes<Value>(wire).has_value());
  Bytes truncated(wire.begin(), wire.begin() + 2);
  EXPECT_FALSE(decode_from_bytes<Value>(truncated).has_value());
}

TEST_F(MessagesTest, AbsurdVoteCountRejected) {
  Encoder enc;
  enc.u8(net::tags::kCertReq);
  enc.u64(6);
  x_.encode(enc);
  enc.u32(1'000'000);  // claims a million votes
  Bytes wire = std::move(enc).take();
  EXPECT_FALSE(parse_message(wire).has_value());
}

// --- Parameterized fuzz: random bit flips never crash the parser ------------------

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, MutatedMessagesNeverCrash) {
  auto keys = std::make_shared<const crypto::KeyStore>(3, 8);
  Value x = Value::of_string("value-x");
  CommitMsg m;
  m.v = 4;
  m.x = x;
  m.cc.x = x;
  m.cc.v = 4;
  for (ProcessId p = 0; p < 5; ++p) {
    m.cc.sigs.push_back(SignatureEntry{
        p, crypto::Signer(keys, p).sign(kDomAck, ack_preimage(x, 4))});
  }
  Bytes wire = m.serialize();

  sim::Rng rng(GetParam());
  for (int iter = 0; iter < 200; ++iter) {
    Bytes mutated = wire;
    int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < flips; ++i) {
      std::size_t pos = static_cast<std::size_t>(rng.next_below(mutated.size()));
      mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    }
    (void)parse_message(mutated);  // must not crash or hang
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace fastbft::consensus
