#include "adversary/behaviors.hpp"

#include "common/assert.hpp"

namespace fastbft::adversary {

namespace {

class SilentProcess final : public runtime::IProcess {
 public:
  void start() override {}
  void on_message(ProcessId, const Bytes&) override {}
};

class EquivocatingLeader final : public runtime::IProcess {
 public:
  EquivocatingLeader(const runtime::ProcessContext& ctx, Value a, Value b)
      : ctx_(ctx),
        endpoint_(ctx.network->endpoint(ctx.id)),
        signer_(ctx.keys, ctx.id),
        value_a_(std::move(a)),
        value_b_(std::move(b)) {}

  void start() override {
    if (ctx_.leader_of(1) != ctx_.id) return;

    consensus::ProposeMsg pa;
    pa.v = 1;
    pa.x = value_a_;
    pa.tau = signer_.sign(consensus::kDomPropose,
                          consensus::propose_preimage(value_a_, 1));
    consensus::ProposeMsg pb;
    pb.v = 1;
    pb.x = value_b_;
    pb.tau = signer_.sign(consensus::kDomPropose,
                          consensus::propose_preimage(value_b_, 1));

    Bytes payload_a = pa.serialize();
    Bytes payload_b = pb.serialize();
    for (ProcessId p = 0; p < ctx_.cfg.n; ++p) {
      endpoint_->send(p, p % 2 == 0 ? payload_a : payload_b);
    }

    // Back both of its own stories with acknowledgments.
    consensus::AckMsg ack_a{1, consensus::xv_preimage_digest(value_a_, 1)};
    consensus::AckMsg ack_b{1, consensus::xv_preimage_digest(value_b_, 1)};
    endpoint_->broadcast(ack_a.serialize());
    endpoint_->broadcast(ack_b.serialize());
  }

  void on_message(ProcessId, const Bytes&) override {
    // Fails by omission after the initial equivocation.
  }

 private:
  runtime::ProcessContext ctx_;
  std::unique_ptr<net::SimEndpoint> endpoint_;
  crypto::Signer signer_;
  Value value_a_;
  Value value_b_;
};

class PromiscuousAcker final : public runtime::IProcess {
 public:
  explicit PromiscuousAcker(const runtime::ProcessContext& ctx)
      : endpoint_(ctx.network->endpoint(ctx.id)) {}

  void start() override {}

  void on_message(ProcessId, const Bytes& payload) override {
    auto parsed = consensus::parse_message(payload);
    if (!parsed) return;
    if (const auto* propose = std::get_if<consensus::ProposeMsg>(&*parsed)) {
      consensus::AckMsg ack{propose->v, consensus::xv_preimage_digest(
                                            propose->x, propose->v)};
      endpoint_->broadcast(ack.serialize());
    }
  }

 private:
  std::unique_ptr<net::SimEndpoint> endpoint_;
};

class Laggard final : public runtime::IProcess {
 public:
  Laggard(const runtime::ProcessContext& ctx, Duration lag)
      : scheduler_(ctx.scheduler),
        lag_(lag),
        node_(std::make_unique<runtime::Node>(
            ctx.cfg, ctx.id, ctx.input, *ctx.network, ctx.keys, ctx.leader_of,
            runtime::NodeOptions{}, nullptr)) {}

  void start() override { node_->start(); }

  void on_message(ProcessId from, const Bytes& payload) override {
    scheduler_->schedule_after(lag_, [this, from, payload] {
      node_->on_message(from, payload);
    });
  }

 private:
  sim::Scheduler* scheduler_;
  Duration lag_;
  std::unique_ptr<runtime::Node> node_;
};

}  // namespace

runtime::ProcessFactory silent() {
  return [](const runtime::ProcessContext&) {
    return std::make_unique<SilentProcess>();
  };
}

runtime::ProcessFactory equivocating_leader(Value value_a, Value value_b) {
  return [value_a = std::move(value_a),
          value_b = std::move(value_b)](const runtime::ProcessContext& ctx) {
    return std::make_unique<EquivocatingLeader>(ctx, value_a, value_b);
  };
}

runtime::ProcessFactory promiscuous_acker() {
  return [](const runtime::ProcessContext& ctx) {
    return std::make_unique<PromiscuousAcker>(ctx);
  };
}

runtime::ProcessFactory laggard(Duration lag) {
  return [lag](const runtime::ProcessContext& ctx) {
    return std::make_unique<Laggard>(ctx, lag);
  };
}

}  // namespace fastbft::adversary
