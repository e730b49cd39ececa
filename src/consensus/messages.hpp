#pragma once

#include <optional>
#include <variant>
#include <vector>

#include "consensus/types.hpp"
#include "net/tags.hpp"

/// \file messages.hpp
/// Wire messages of the protocol (Figures 1a, 1b and 5 of the paper), each
/// serialized as tag byte + body. Parsing is total: malformed payloads
/// decode to nullopt and are dropped by the replica, never trusted.

namespace fastbft::consensus {

/// propose(x, v, sigma, tau) — leader's proposal (Section 3.1).
struct ProposeMsg {
  View v = kNoView;
  Value x;
  ProgressCert sigma;
  crypto::Signature tau;

  Bytes serialize() const;
  static std::optional<ProposeMsg> decode(Decoder& dec);
  friend bool operator==(const ProposeMsg&, const ProposeMsg&) = default;
};

/// ack(x, v) — unsigned acknowledgment broadcast on accepting a proposal.
/// Names x by d = xv_preimage_digest(x, v), the digest every signer of
/// (x, v) already hashes: the batch travels in Propose and Commit only.
struct AckMsg {
  View v = kNoView;
  crypto::Digest d{};

  Bytes serialize() const;
  static std::optional<AckMsg> decode(Decoder& dec);
};

/// sig(phi_ack) — slow path (Appendix A.1): the signed counterpart of an
/// ack, sent separately so signing latency never delays the fast path.
struct AckSigMsg {
  View v = kNoView;
  crypto::Digest d{};  // as in AckMsg; phi_ack signs exactly this digest
  crypto::Signature phi_ack;

  Bytes serialize() const;
  static std::optional<AckSigMsg> decode(Decoder& dec);
};

/// Commit(x, v, cc) — slow path: broadcast once a commit certificate is
/// assembled.
struct CommitMsg {
  View v = kNoView;
  Value x;
  CommitCert cc;

  Bytes serialize() const;
  static std::optional<CommitMsg> decode(Decoder& dec);
};

/// vote(vote_q, phi_vote) — sent to the leader of a newly entered view.
struct VoteMsg {
  View v = kNoView;  // destination view
  VoteRecord record;

  Bytes serialize() const;
  static std::optional<VoteMsg> decode(Decoder& dec);
};

/// CertReq(x, votes) — leader asks for confirmation that x was selected
/// correctly from `votes` (Section 3.2, "creating the progress
/// certificate").
struct CertReqMsg {
  View v = kNoView;
  Value x;
  std::vector<VoteRecord> votes;

  Bytes serialize() const;
  static std::optional<CertReqMsg> decode(Decoder& dec);
};

/// CertAck(phi_ca) — signed confirmation returned to the leader.
struct CertAckMsg {
  View v = kNoView;
  Value x;
  crypto::Signature phi_ca;

  Bytes serialize() const;
  static std::optional<CertAckMsg> decode(Decoder& dec);
};

/// ValueReq(v, d) — asks the members of a quorum for the (v, d) the asker
/// cannot resolve to a value (it never received the matching proposal).
struct ValueReqMsg {
  View v = kNoView;
  crypto::Digest d{};

  Bytes serialize() const;
  static std::optional<ValueReqMsg> decode(Decoder& dec);
};

/// Value(v, x) — the answer to a ValueReq; self-certifying, because the
/// receiver recomputes d from (x, v).
struct ValueMsg {
  View v = kNoView;
  Value x;

  Bytes serialize() const;
  static std::optional<ValueMsg> decode(Decoder& dec);
};

using Message = std::variant<ProposeMsg, AckMsg, AckSigMsg, CommitMsg, VoteMsg,
                             CertReqMsg, CertAckMsg, ValueReqMsg, ValueMsg>;

/// Parses a full payload (tag + body). Returns nullopt for unknown tags,
/// truncated or trailing bytes. Takes a view so wrapped/nested payloads
/// parse without being copied out first; the result owns its fields.
std::optional<Message> parse_message(ByteView payload);

/// View number of any protocol message (used for buffering).
View message_view(const Message& msg);

}  // namespace fastbft::consensus
