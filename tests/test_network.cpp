#include <gtest/gtest.h>

#include "net/sim_network.hpp"
#include "net/tags.hpp"

namespace fastbft::net {
namespace {

struct Received {
  ProcessId at;
  ProcessId from;
  Bytes payload;
  TimePoint time;
};

class SimNetworkTest : public ::testing::Test {
 protected:
  SimNetworkTest() { configure({}); }

  void configure(SimNetworkConfig config) {
    config.delta = 100;
    if (config.min_delay == 0 || config.min_delay > config.delta) {
      config.min_delay = 100;
    }
    net_ = std::make_unique<SimNetwork>(sched_, 4, config);
    for (ProcessId id = 0; id < 4; ++id) {
      net_->attach(id, [this, id](ProcessId from, const Bytes& payload) {
        received_.push_back(Received{id, from, payload, sched_.now()});
      });
    }
  }

  sim::Scheduler sched_;
  std::unique_ptr<SimNetwork> net_;
  std::vector<Received> received_;
};

TEST_F(SimNetworkTest, DeliversWithinDeltaAfterGst) {
  net_->send(0, 1, {0x42});
  sched_.run_to_completion();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].at, 1u);
  EXPECT_EQ(received_[0].from, 0u);
  EXPECT_GT(received_[0].time, 0);
  EXPECT_LE(received_[0].time, 100);
}

TEST_F(SimNetworkTest, SelfSendIsImmediate) {
  net_->send(2, 2, {0x01});
  sched_.run_to_completion();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].time, 0);
}

TEST_F(SimNetworkTest, PreGstDelaysExceedDeltaButRespectGstBound) {
  SimNetworkConfig config;
  config.gst = 5'000;
  config.pre_gst_max_delay = 100'000;  // would exceed GST + delta
  config.seed = 3;
  configure(config);

  for (int i = 0; i < 20; ++i) net_->send(0, 1, {0x01});
  sched_.run_to_completion();
  ASSERT_EQ(received_.size(), 20u);
  for (const auto& r : received_) {
    EXPECT_GT(r.time, 100);          // slower than synchronous delivery
    EXPECT_LE(r.time, 5'000 + 100);  // but capped at GST + delta
  }
}

TEST_F(SimNetworkTest, DisconnectedSenderDropsMessages) {
  net_->disconnect(0);
  net_->send(0, 1, {0x01});
  sched_.run_to_completion();
  EXPECT_TRUE(received_.empty());
}

TEST_F(SimNetworkTest, DisconnectedReceiverDropsInFlight) {
  net_->send(0, 1, {0x01});
  net_->disconnect(1);  // before delivery fires
  sched_.run_to_completion();
  EXPECT_TRUE(received_.empty());
}

TEST_F(SimNetworkTest, ScriptOverridesDeliveryTime) {
  net_->set_script([](const Envelope&, TimePoint now) {
    return std::optional<TimePoint>(now + 777);
  });
  net_->send(0, 1, {0x01});
  sched_.run_to_completion();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].time, 777);
}

TEST_F(SimNetworkTest, ScriptCanParkAndFlush) {
  net_->set_script([](const Envelope& env, TimePoint) {
    if (env.to == 1) return std::optional<TimePoint>(kTimeInfinity);
    return std::optional<TimePoint>();
  });
  net_->send(0, 1, {0x01});
  net_->send(0, 2, {0x02});
  sched_.run_to_completion();
  ASSERT_EQ(received_.size(), 1u);  // only the p2 message arrived
  EXPECT_EQ(received_[0].at, 2u);

  net_->flush_parked();
  sched_.run_to_completion();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[1].at, 1u);
}

TEST_F(SimNetworkTest, StatsCountPerTag) {
  net_->send(0, 1, {tags::kPropose, 0x00});
  net_->send(0, 2, {tags::kPropose, 0x00});
  net_->send(1, 2, {tags::kAck});
  EXPECT_EQ(net_->stats().total_messages(), 3u);
  EXPECT_EQ(net_->stats().messages_of(tags::kPropose), 2u);
  EXPECT_EQ(net_->stats().messages_of(tags::kAck), 1u);
  EXPECT_EQ(net_->stats().total_bytes(), 5u);
}

TEST_F(SimNetworkTest, BroadcastReachesEveryone) {
  auto ep = net_->endpoint(3);
  ep->broadcast({0x05});
  sched_.run_to_completion();
  EXPECT_EQ(received_.size(), 4u);

  received_.clear();
  ep->broadcast_others({0x06});
  sched_.run_to_completion();
  EXPECT_EQ(received_.size(), 3u);
  for (const auto& r : received_) EXPECT_NE(r.at, 3u);
}

TEST_F(SimNetworkTest, DeterministicAcrossRuns) {
  auto run_once = [](std::uint64_t seed) {
    sim::Scheduler sched;
    SimNetworkConfig config;
    config.delta = 100;
    config.min_delay = 10;
    config.seed = seed;
    SimNetwork net(sched, 2, config);
    std::vector<TimePoint> times;
    net.attach(1, [&](ProcessId, const Bytes&) { times.push_back(sched.now()); });
    net.attach(0, [&](ProcessId, const Bytes&) {});
    for (int i = 0; i < 10; ++i) net.send(0, 1, {0x01});
    sched.run_to_completion();
    return times;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(TagName, KnownAndUnknown) {
  EXPECT_EQ(tag_name(tags::kPropose), "PROPOSE");
  EXPECT_EQ(tag_name(tags::kWish), "WISH");
  EXPECT_EQ(tag_name(tags::kValueReq), "VALUE_REQ");
  EXPECT_EQ(tag_name(tags::kValue), "VALUE");
  EXPECT_EQ(tag_name(tags::kPbftPrepare), "PBFT_PREPARE");
  EXPECT_EQ(tag_name(tags::kFabAccept), "FAB_ACCEPT");
  EXPECT_EQ(tag_name(tags::kSmrSnapRequest), "SNAPSHOT_REQUEST");
  EXPECT_EQ(tag_name(0xee), "TAG_0xee");
}

}  // namespace
}  // namespace fastbft::net
