// Live-cluster conformance over the in-process loopback transport: four
// NodeHosts (the exact stack a TCP daemon runs — wire codec, replicated
// ledger, batch exchange, client RPC) on a shared discrete-event simulation,
// driven through QuorumClient over RemoteNode stubs, checked against the
// Setchain properties (P1-P8), the InstantLedger reference run (P9
// live-vs-sim), and the quorum get/verify client protocol — plus
// fault-injection reuse: the same sim::FaultInjector that rules on the
// pointer network rules on loopback frames.
#include "net/loopback.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "api/quorum_client.hpp"
#include "net/remote_node.hpp"
#include "net_fixture.hpp"

namespace setchain::net {
namespace {

using namespace setchain::net::testing;

struct LoopbackCluster {
  NodeHostConfig cfg;
  sim::Simulation sim;
  LoopbackHub hub;
  std::vector<std::unique_ptr<NodeHost>> hosts;
  crypto::Pki pki;  ///< client-side PKI (same seed -> same keys as daemons)

  explicit LoopbackCluster(runner::Algorithm algo, std::uint32_t n = 4)
      : cfg(make_config(algo, n)), hub(sim, n), pki(cfg.seed) {
    for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
      pki.register_process(p);
    }
  }

  static NodeHostConfig make_config(runner::Algorithm algo, std::uint32_t n) {
    NodeHostConfig cfg;
    cfg.n = n;
    cfg.f = (n - 1) / 3;
    cfg.algorithm = algo;
    cfg.seed = 42;
    cfg.collector_limit = 6;
    cfg.collector_timeout = sim::from_millis(200);
    cfg.block_interval = sim::from_millis(150);
    cfg.sync_interval = sim::from_millis(400);
    return cfg;
  }

  void start() {
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      NodeHostConfig c = cfg;
      c.id = i;
      hosts.push_back(std::make_unique<NodeHost>(c, sim, hub.transport(i)));
      hosts.back()->start();
    }
  }

  api::QuorumClient client(std::vector<std::unique_ptr<RemoteNode>>& stubs) {
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      stubs.push_back(std::make_unique<RemoteNode>(
          std::make_unique<LoopbackRpcChannel>(hub, i), i));
    }
    return api::make_quorum_client(stubs, pki, cfg.f, core::Fidelity::kFull,
                                   api::WritePolicy::kAll);
  }

  void pump_seconds(double s) { sim.run_until(sim.now() + sim::from_seconds(s)); }

  /// Pump until `pred` holds (checked every virtual 250 ms). False on
  /// virtual-time budget exhaustion.
  bool pump_until(const std::function<bool()>& pred, double budget_seconds = 120) {
    const sim::Time deadline = sim.now() + sim::from_seconds(budget_seconds);
    while (sim.now() < deadline) {
      if (pred()) return true;
      sim.run_until(sim.now() + sim::from_millis(250));
    }
    return pred();
  }

  std::vector<const core::SetchainServer*> servers() const {
    std::vector<const core::SetchainServer*> out;
    for (const auto& h : hosts) out.push_back(&h->server());
    return out;
  }

  bool all_consolidated(std::size_t expect) const {
    for (const auto& h : hosts) {
      const auto snap = h->server().get();
      std::size_t in_history = 0;
      for (const auto& rec : *snap.history) in_history += rec.ids.size();
      if (in_history < expect) return false;
    }
    return true;
  }

  bool liveness_green(const std::vector<core::ElementId>& accepted) const {
    return core::check_liveness_quiescent(servers(), accepted, hosts[0]->params(),
                                          hosts[0]->pki())
        .ok();
  }
};

/// Drive the workload through the full wire path and return accepted ids.
std::vector<core::ElementId> drive(api::QuorumClient& client,
                                   const std::vector<core::Element>& elements) {
  std::vector<core::ElementId> accepted;
  for (const auto& e : elements) {
    const auto r = client.add(e);
    EXPECT_TRUE(r.ok) << "add refused everywhere, element " << e.id;
    if (r.ok) accepted.push_back(e.id);
  }
  return accepted;
}

class LoopbackClusterConformance
    : public ::testing::TestWithParam<runner::Algorithm> {};

// The tentpole validation: the P1-P9 conformance checks and the quorum
// client protocol, against a 4-node cluster whose every interaction is a
// decoded wire frame, with results matching the in-process sim reference.
TEST_P(LoopbackClusterConformance, WireClusterMatchesSimReference) {
  LoopbackCluster cl(GetParam());
  cl.start();

  const auto elements = make_workload(cl.cfg, 30, cl.pki);
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);

  const auto accepted = drive(client, elements);
  ASSERT_EQ(accepted.size(), elements.size());

  // Drain: consolidation everywhere, then the proof traffic behind P8.
  ASSERT_TRUE(cl.pump_until([&] { return cl.all_consolidated(accepted.size()); }))
      << "cluster never consolidated the workload";
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted); }))
      << "epoch-proof traffic never reached quiescence";

  // P1-P9 against the InstantLedger reference run of the same workload.
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference,
                                   runner::algorithm_name(GetParam()));

  // Quorum client protocol over the wire: f+1-agreed view + commit check.
  const auto view = client.get();
  EXPECT_EQ(view.masked_nodes, 0u);
  for (const auto id : accepted) {
    EXPECT_TRUE(view.the_set.contains(id)) << "quorum view missing " << id;
  }
  const auto verdict = client.verify(accepted.front());
  EXPECT_TRUE(verdict.in_epoch);
  EXPECT_TRUE(verdict.committed);
  EXPECT_GE(verdict.valid_proofs, cl.cfg.f + 1);

  // The cluster really ran on frames: ledger blocks were broadcast and (for
  // hashchain) batches travelled the exchange.
  EXPECT_GT(cl.hosts[0]->ledger().blocks_broadcast(), 0u);
  std::uint64_t frames = 0;
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    frames += cl.hub.transport(i).counters().frames_received;
  }
  EXPECT_GT(frames, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, LoopbackClusterConformance,
                         ::testing::Values(runner::Algorithm::kVanilla,
                                           runner::Algorithm::kCompresschain,
                                           runner::Algorithm::kHashchain),
                         [](const auto& info) {
                           return std::string(runner::algorithm_name(info.param));
                         });

// Fault-injector reuse on the loopback transport: a one-way link drop window
// between the sequencer and one replica loses block frames for real (the
// injector counts them), and the sync pull heals the gap after the window —
// the transport equivalent of the PR-4 fault scenarios.
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

  // The victim link really dropped frames (blocks and/or sync responses).
  ASSERT_NE(cl.hub.faults(), nullptr);
  EXPECT_TRUE(cl.pump_until(
      [&] { return cl.hub.faults()->stats().dropped_random > 0; }, 10))
      << "fault window never saw traffic on the victim link";

  // After the heal, node 2 recovers the lost heights via kBlockSyncRequest
  // and the whole cluster converges to full liveness.
  ASSERT_TRUE(cl.pump_until([&] { return cl.all_consolidated(accepted.size()); }))
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

  ASSERT_TRUE(cl.pump_until([&] { return cl.all_consolidated(accepted.size()); }))
      << "partitioned node never rejoined";
  ASSERT_TRUE(cl.pump_until([&] { return cl.liveness_green(accepted); }));
  EXPECT_GT(cl.hub.faults()->stats().dropped_partition, 0u);

  // Consistent-Gets across the healed cluster, node 3 included.
  const auto safety = core::check_safety(cl.servers());
  EXPECT_TRUE(safety.ok()) << safety.to_string();
}

/// ITransport pass-through that notes, on the simulated clock, when its node
/// handles a kBatchRequest and when it sends a kBatchResponse.
class BatchExchangeTap final : public ITransport {
 public:
  BatchExchangeTap(ITransport& inner, sim::Simulation& sim) : inner_(inner), sim_(sim) {}

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
  std::size_t poll(std::chrono::milliseconds max_wait) override {
    return inner_.poll(max_wait);
  }
  std::uint32_t self() const override { return inner_.self(); }
  Counters counters() const override { return inner_.counters(); }

  std::vector<sim::Time> requests_handled;
  std::vector<sim::Time> responses_sent;

 private:
  ITransport& inner_;
  sim::Simulation& sim_;
};

// A live node has no simulated CPU: it answers a Request_batch in the same
// virtual instant it handles it, with no modeled serving cost in between.
TEST(LoopbackClusterBatchExchange, ResponseLeavesWhenRequestIsHandled) {
  LoopbackCluster cl(runner::Algorithm::kHashchain);
  std::vector<std::unique_ptr<BatchExchangeTap>> taps;
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    NodeHostConfig c = cl.cfg;
    c.id = i;
    taps.push_back(std::make_unique<BatchExchangeTap>(cl.hub.transport(i), cl.sim));
    cl.hosts.push_back(std::make_unique<NodeHost>(c, cl.sim, *taps.back()));
    cl.hosts.back()->start();
  }

  // Node 0 alone batches the workload, so every other node fetches from it.
  const auto elements = make_workload(cl.cfg, 12, cl.pki);
  for (const auto& e : elements) ASSERT_TRUE(cl.hosts[0]->server().add(e));
  ASSERT_TRUE(cl.pump_until([&] { return cl.all_consolidated(elements.size()); }));

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
  ASSERT_TRUE(cl.pump_until([&] { return cl.all_consolidated(accepted.size()); }));
}

}  // namespace
}  // namespace setchain::net
