#include "adversary/lower_bound.hpp"

#include <map>
#include <memory>
#include <optional>
#include <sstream>

#include "adversary/recording_transport.hpp"
#include "common/assert.hpp"
#include "consensus/replica.hpp"
#include "net/tags.hpp"

namespace fastbft::adversary {

namespace {

/// Harness that owns correct replicas behind recording transports and lets
/// the attack deliver messages selectively ("crank by hand"). Byzantine
/// processes have no replica — the attack crafts their messages directly
/// with their (legitimately owned) signing keys.
struct HandCrankedCluster {
  consensus::QuorumConfig cfg;
  std::shared_ptr<const crypto::KeyStore> keys;
  crypto::Verifier verifier;
  consensus::LeaderFn leader_of;

  std::map<ProcessId, std::unique_ptr<RecordingTransport>> transports;
  std::map<ProcessId, std::unique_ptr<consensus::Replica>> replicas;
  std::map<ProcessId, consensus::DecisionRecord> decisions;

  HandCrankedCluster(consensus::QuorumConfig config, std::uint64_t key_seed)
      : cfg(config),
        keys(std::make_shared<const crypto::KeyStore>(key_seed, config.n)),
        verifier(keys),
        leader_of(consensus::round_robin_leader(config.n)) {}

  void add_correct(ProcessId id, Value input) {
    auto transport = std::make_unique<RecordingTransport>(id, cfg.n);
    auto replica = std::make_unique<consensus::Replica>(
        cfg, id, std::move(input), *transport, crypto::Signer(keys, id),
        verifier, leader_of,
        [this, id](const consensus::DecisionRecord& record) {
          decisions.emplace(id, record);
        },
        consensus::ReplicaOptions{.slow_path = false});
    transports.emplace(id, std::move(transport));
    replicas.emplace(id, std::move(replica));
  }

  bool is_correct(ProcessId id) const { return replicas.contains(id); }

  void deliver(ProcessId from, ProcessId to, const Bytes& payload) {
    auto it = replicas.find(to);
    FASTBFT_ASSERT(it != replicas.end(), "delivering to a Byzantine process");
    it->second->on_message(from, payload);
  }

  /// Drains `from`'s outbox, returning only messages matching `tag`
  /// (everything else is implicitly delayed by the adversary).
  std::vector<net::Envelope> drain(ProcessId from, std::uint8_t tag) {
    std::vector<net::Envelope> matching;
    for (auto& env : transports.at(from)->take_outbox()) {
      if (!env.payload.empty() && env.payload[0] == tag) {
        matching.push_back(std::move(env));
      }
    }
    return matching;
  }
};

}  // namespace

LowerBoundOutcome run_lower_bound_attack(std::uint32_t n) {
  constexpr std::uint32_t f = 2;
  constexpr std::uint32_t t = 2;
  FASTBFT_ASSERT(n >= 3 * f + 2 * t - 2, "attack is scripted for n >= 8");

  LowerBoundOutcome outcome;
  outcome.n = n;
  outcome.f = f;
  outcome.t = t;

  auto cfg = consensus::QuorumConfig::unsafe_for_lower_bound_demo(n, f, t);
  HandCrankedCluster cluster(cfg, /*key_seed=*/7);

  const Value x = Value::of_string("x-fast");
  const Value y = Value::of_string("y-alt");
  outcome.early_value = x;

  // Cast: p0 = equivocating view-1 leader (Byzantine), p_{n-1} = colluding
  // acker (Byzantine). Everyone else is correct. leader(2) = p1.
  const ProcessId leader1 = 0;
  const ProcessId accomplice = n - 1;
  const ProcessId leader2 = 1;
  const ProcessId early_decider = 3;
  FASTBFT_ASSERT(cluster.leader_of(1) == leader1 &&
                     cluster.leader_of(2) == leader2,
                 "attack script assumes round-robin leaders");

  // Group B = {p1, p2} is shown y; group A = {p3, ..., p_{n-2}} is shown x.
  for (ProcessId id = 1; id <= n - 2; ++id) {
    cluster.add_correct(id, id == leader2 ? y : x);
  }

  crypto::Signer sig_leader1(cluster.keys, leader1);
  crypto::Signer sig_accomplice(cluster.keys, accomplice);

  // --- Round 1: the equivocation -------------------------------------------
  consensus::ProposeMsg propose_x;
  propose_x.v = 1;
  propose_x.x = x;
  propose_x.tau = sig_leader1.sign(consensus::kDomPropose,
                                   consensus::propose_preimage(x, 1));
  consensus::ProposeMsg propose_y;
  propose_y.v = 1;
  propose_y.x = y;
  propose_y.tau = sig_leader1.sign(consensus::kDomPropose,
                                   consensus::propose_preimage(y, 1));

  Bytes wire_x = propose_x.serialize();
  Bytes wire_y = propose_y.serialize();
  for (ProcessId id = 1; id <= n - 2; ++id) {
    cluster.deliver(leader1, id, id <= 2 ? wire_y : wire_x);
  }

  // Collect the acks each correct process broadcast; the adversary delays
  // all of them except the ones aimed at the early decider.
  std::map<ProcessId, Bytes> ack_of;  // acker -> its ack payload
  for (ProcessId id = 1; id <= n - 2; ++id) {
    auto acks = cluster.drain(id, net::tags::kAck);
    FASTBFT_ASSERT(!acks.empty(), "every correct process acks in round 1");
    ack_of[id] = acks.front().payload;
  }

  // --- Round 2: the early decider assembles a fast quorum for x -------------
  // Ackers of x: the A-group (p3..p_{n-2}) plus both Byzantine processes.
  consensus::AckMsg byz_ack{1, consensus::xv_preimage_digest(x, 1)};
  Bytes byz_ack_wire = byz_ack.serialize();
  cluster.deliver(leader1, early_decider, byz_ack_wire);
  cluster.deliver(accomplice, early_decider, byz_ack_wire);
  for (ProcessId id = 3; id <= n - 2; ++id) {
    cluster.deliver(id, early_decider, ack_of[id]);
  }
  FASTBFT_ASSERT(cluster.decisions.contains(early_decider),
                 "fast quorum must make the early decider decide x");
  FASTBFT_ASSERT(cluster.decisions.at(early_decider).value == x,
                 "early decider must decide the fast value");

  // --- View change to view 2 -------------------------------------------------
  for (ProcessId id = 1; id <= n - 2; ++id) {
    cluster.replicas.at(id)->enter_view(2);
  }

  // Each correct process emitted a vote addressed to leader2. The adversary
  // delays the early decider's (x-carrying) vote; everything else arrives.
  std::map<ProcessId, Bytes> vote_of;
  for (ProcessId id = 1; id <= n - 2; ++id) {
    auto votes = cluster.drain(id, net::tags::kVote);
    FASTBFT_ASSERT(votes.size() == 1, "one vote per view change");
    vote_of[id] = votes.front().payload;
  }
  for (ProcessId id = 1; id <= n - 2; ++id) {
    if (id == early_decider) continue;
    cluster.deliver(id, leader2, vote_of[id]);
  }

  // The accomplice submits a (valid, signed) nil vote — it simply claims it
  // never acknowledged anything.
  {
    consensus::VoteMsg nil_vote;
    nil_vote.v = 2;
    nil_vote.record.voter = accomplice;
    nil_vote.record.vote = consensus::Vote::nil();
    nil_vote.record.phi = sig_accomplice.sign(
        consensus::kDomVote,
        consensus::vote_preimage(nil_vote.record.vote, std::nullopt, 2));
    cluster.deliver(accomplice, leader2, nil_vote.serialize());
  }

  // --- Leader 2 runs the (honest) view change to completion ------------------
  // Deliver its CertReq to every correct target, route the CertAcks back,
  // then deliver its proposal and all resulting acks among correct
  // processes.
  auto cert_reqs = cluster.drain(leader2, net::tags::kCertReq);
  FASTBFT_ASSERT(!cert_reqs.empty(),
                 "leader2 must resolve selection with n - f votes");
  for (const auto& env : cert_reqs) {
    if (cluster.is_correct(env.to)) {
      cluster.deliver(leader2, env.to, env.payload);
    }
  }
  for (ProcessId id = 1; id <= n - 2; ++id) {
    for (const auto& env : cluster.drain(id, net::tags::kCertAck)) {
      if (cluster.is_correct(env.to)) {
        cluster.deliver(id, env.to, env.payload);
      }
    }
  }

  auto proposals = cluster.drain(leader2, net::tags::kPropose);
  FASTBFT_ASSERT(!proposals.empty(), "leader2 must propose after f+1 CertAcks");
  {
    auto parsed = consensus::parse_message(proposals.front().payload);
    outcome.view2_value = std::get<consensus::ProposeMsg>(*parsed).x;
  }
  for (ProcessId id = 1; id <= n - 2; ++id) {
    cluster.deliver(leader2, id, proposals.front().payload);
  }
  for (ProcessId id = 1; id <= n - 2; ++id) {
    for (const auto& env : cluster.drain(id, net::tags::kAck)) {
      if (cluster.is_correct(env.to)) {
        cluster.deliver(id, env.to, env.payload);
      }
    }
  }

  // --- Verdict ----------------------------------------------------------------
  for (ProcessId id = 1; id <= n - 2; ++id) {
    auto it = cluster.decisions.find(id);
    if (it != cluster.decisions.end()) {
      outcome.decisions.push_back(
          {id, it->second.value, it->second.view});
    }
  }
  for (std::size_t i = 1; i < outcome.decisions.size(); ++i) {
    if (outcome.decisions[i].value != outcome.decisions[0].value) {
      outcome.disagreement = true;
    }
  }
  return outcome;
}

std::string LowerBoundOutcome::describe() const {
  std::ostringstream out;
  out << "n=" << n << " f=" << f << " t=" << t
      << " (bound 3f+2t-1 = " << (3 * f + 2 * t - 1) << ")\n";
  out << "  view-2 selection yielded: " << view2_value.to_string() << "\n";
  for (const auto& d : decisions) {
    out << "  p" << d.pid << " decided " << d.value.to_string() << " in view "
        << d.view << "\n";
  }
  out << (disagreement ? "  => DISAGREEMENT (safety violated)\n"
                       : "  => agreement preserved\n");
  return out.str();
}

}  // namespace fastbft::adversary
