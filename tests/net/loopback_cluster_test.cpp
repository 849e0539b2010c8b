// Live clusters over the in-process loopback transport: four NodeHosts (the
// exact stack a TCP daemon runs — wire codec, consensus ledger, batch
// exchange, client RPC) on a shared discrete-event simulation. The same
// sim::FaultInjector that rules on the pointer network rules on loopback
// frames: drop windows and partitions must heal through block sync. The
// fault-free P1-P9 conformance run per algorithm is ConsensusClusterConformance
// (consensus_cluster_test.cpp).
#include "net/loopback.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "net_fixture.hpp"

namespace setchain::net {
namespace {

using namespace setchain::net::testing;

// Fault-injector reuse on the loopback transport: a one-way link drop window
// from node 0 to node 2 loses consensus frames for real (the injector counts
// them), and the sync pull heals the gap after the window — the transport
// equivalent of the PR-4 fault scenarios.
TEST(LoopbackClusterFaults, DirectedDropWindowHealsViaBlockSync) {
  LoopbackCluster cl(runner::Algorithm::kHashchain);
  sim::FaultPlan plan;
  plan.faults.push_back(sim::Fault::drop(/*from=*/0, /*to=*/2, /*probability=*/1.0,
                                         sim::from_millis(200), sim::from_seconds(4)));
  cl.hub.install_faults(plan, /*seed=*/7);
  cl.start();

  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_EQ(accepted.size(), elements.size());

  // The victim link really dropped frames (proposals, votes and/or sync
  // responses).
  ASSERT_NE(cl.hub.faults(), nullptr);
  EXPECT_TRUE(cl.pump_until(
      [&] { return cl.hub.faults()->stats().dropped_random > 0; }, 10))
      << "fault window never saw traffic on the victim link";

  // After the heal, node 2 recovers the lost heights via kBlockSyncRequest
  // and the whole cluster converges to full liveness.
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }))
      << "victim node never caught up past the drop window";
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted); }));
  const auto safety = core::check_safety(cl.servers());
  EXPECT_TRUE(safety.ok()) << safety.to_string();
  EXPECT_GT(cl.hub.frames_dropped(), 0u);
}

// Symmetric partition of one replica: during the window its announcements
// and fetches go nowhere; afterwards block sync + batch-fetch retries bring
// it back to the exact same state as everyone else.
TEST(LoopbackClusterFaults, PartitionedReplicaRejoins) {
  LoopbackCluster cl(runner::Algorithm::kHashchain);
  sim::FaultPlan plan;
  plan.faults.push_back(sim::Fault::partition({3}, sim::from_millis(200),
                                              sim::from_seconds(5),
                                              /*symmetric=*/true));
  cl.hub.install_faults(plan, /*seed=*/11);
  cl.start();

  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_EQ(accepted.size(), elements.size());

  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }))
      << "partitioned node never rejoined";
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted); }));
  EXPECT_GT(cl.hub.faults()->stats().dropped_partition, 0u);

  // Consistent-Gets across the healed cluster, node 3 included.
  const auto safety = core::check_safety(cl.servers());
  EXPECT_TRUE(safety.ok()) << safety.to_string();
}

/// Pass-through that notes, on the simulated clock, when its node handles a
/// kBatchRequest and when it sends a kBatchResponse.
class BatchExchangeTap final : public ForwardingTransport {
 public:
  BatchExchangeTap(ITransport& inner, sim::Simulation& sim)
      : ForwardingTransport(inner), sim_(sim) {}

  void set_handler(FrameHandler handler) override {
    inner_.set_handler([this, handler = std::move(handler)](EndpointId from,
                                                            wire::Frame&& f) {
      if (f.type == wire::MsgType::kBatchRequest) requests_handled.push_back(sim_.now());
      handler(from, std::move(f));
    });
  }
  bool send(EndpointId to, wire::MsgType type, codec::ByteView payload) override {
    if (type == wire::MsgType::kBatchResponse) responses_sent.push_back(sim_.now());
    return inner_.send(to, type, payload);
  }

  std::vector<sim::Time> requests_handled;
  std::vector<sim::Time> responses_sent;

 private:
  sim::Simulation& sim_;
};

// A live node has no simulated CPU: it answers a Request_batch in the same
// virtual instant it handles it, with no modeled serving cost in between.
TEST(LoopbackClusterBatchExchange, ResponseLeavesWhenRequestIsHandled) {
  LoopbackCluster cl(runner::Algorithm::kHashchain);
  std::vector<const BatchExchangeTap*> taps;
  cl.start([&](const NodeHostConfig&, ITransport& t) {
    auto tap = std::make_unique<BatchExchangeTap>(t, cl.sim);
    taps.push_back(tap.get());
    return tap;
  });

  // Node 0 alone batches the workload, so every other node fetches from it.
  const auto elements = make_workload(cl.cfg, 12, cl.pki);
  for (const auto& e : elements) ASSERT_TRUE(cl.hosts[0]->server().add(e));
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(elements.size()); }));

  const BatchExchangeTap& holder = *taps[0];
  ASSERT_FALSE(holder.responses_sent.empty()) << "nobody fetched from node 0";
  for (const sim::Time sent : holder.responses_sent) {
    const auto& handled = holder.requests_handled;
    EXPECT_TRUE(std::find(handled.begin(), handled.end(), sent) != handled.end())
        << "kBatchResponse sent at " << sent
        << " ns, not at the instant a kBatchRequest was handled";
  }
}

// A garbage frame (bad payload for its type) must be counted and ignored,
// never crash a node or poison its state.
TEST(LoopbackClusterRobustness, MalformedPayloadsAreCountedAndIgnored) {
  LoopbackCluster cl(runner::Algorithm::kHashchain);
  cl.start();

  // Raw junk payloads under every server-to-server type, "from" node 1.
  for (const auto type :
       {wire::MsgType::kTxSubmit, wire::MsgType::kBlock,
        wire::MsgType::kBlockSyncRequest, wire::MsgType::kBlockSyncResponse,
        wire::MsgType::kBatchRequest, wire::MsgType::kBatchResponse}) {
    cl.hub.transport(1).send(0, type, codec::to_bytes("junk payload"));
  }
  cl.pump_seconds(1);
  EXPECT_EQ(cl.hosts[0]->bad_frames(), 6u);

  // The node still works: a normal workload goes through untouched.
  const auto elements = make_workload(cl.cfg, 8, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto accepted = drive(client, elements);
  ASSERT_TRUE(cl.pump_until([&] { return cl.consolidated(accepted.size()); }));
}

}  // namespace
}  // namespace setchain::net
