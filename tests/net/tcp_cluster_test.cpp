// Live 4-node TCP cluster, in-process: four NodeHosts on real localhost
// sockets (ephemeral ports), each pumped by its own thread, driven from the
// test thread through QuorumClient over TcpRpcChannel/RemoteNode — the
// exact client stack of examples/remote_quorum_client. After the cluster
// drains, the hosts stop and the white-box P1-P9 conformance checks run
// against the InstantLedger reference of the same workload.
#include "net/tcp.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/quorum_client.hpp"
#include "net/remote_node.hpp"
#include "net_fixture.hpp"

namespace setchain::net {
namespace {

using namespace setchain::net::testing;
using namespace std::chrono_literals;

struct Cluster {
  static NodeHostConfig make_config(runner::Algorithm algo) {
    NodeHostConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.algorithm = algo;
    cfg.seed = 42;
    cfg.collector_limit = 6;
    cfg.collector_timeout = sim::from_millis(100);
    cfg.block_interval = sim::from_millis(80);
    cfg.sync_interval = sim::from_millis(200);
    // Real-time test: rounds must skip a dead proposer within seconds.
    cfg.timeout_propose = sim::from_millis(800);
    cfg.retry_interval = sim::from_millis(200);
    return cfg;
  }

  NodeHostConfig cfg;
  std::vector<std::unique_ptr<sim::Simulation>> sims;
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<ITransport>> wrappers;  ///< outlive the hosts
  std::vector<std::unique_ptr<NodeHost>> hosts;
  std::vector<std::thread> pumps;
  // One stop flag per node so a single node can be killed mid-run.
  std::vector<std::unique_ptr<std::atomic<bool>>> stops;
  bool stopped = false;
  crypto::Pki pki;

  /// `wrap` (optional) puts a decorator in front of a node's TcpTransport.
  explicit Cluster(runner::Algorithm algo, const TransportWrapper& wrap = {})
      : cfg(make_config(algo)), pki(cfg.seed) {
    for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
      pki.register_process(p);
    }

    // Bind each transport on an ephemeral port in id order, collecting the
    // addresses as we go. Dialing only targets LOWER ids, whose transports
    // (and ports) already exist, so the peer list each transport needs is
    // always complete at construction time.
    std::vector<std::string> peer_addrs;
    const std::uint64_t cluster = NodeHost::cluster_id_of(cfg);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      TcpConfig tc;
      tc.self = i;
      tc.n = cfg.n;
      tc.cluster = cluster;
      tc.listen_port = 0;
      tc.peers = peer_addrs;  // ids 0..i-1: exactly the dial targets
      tc.peers.resize(cfg.n);
      transports.push_back(std::make_unique<TcpTransport>(tc));
      peer_addrs.push_back("127.0.0.1:" +
                           std::to_string(transports[i]->listen_port()));
    }

    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      NodeHostConfig c = cfg;
      c.id = i;
      sims.push_back(std::make_unique<sim::Simulation>());
      ITransport& t = wrap_transport(wrap, c, *transports[i], wrappers);
      hosts.push_back(std::make_unique<NodeHost>(c, *sims[i], t));
    }
  }

  void start() {
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      hosts[i]->start();
      transports[i]->start();
    }
    // All stop flags exist before any pump thread runs: a pump dereferences
    // its flag through a stable pointer, never through the still-growing
    // vector (push_back may reallocate under a concurrent reader).
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      stops.push_back(std::make_unique<std::atomic<bool>>(false));
    }
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      std::atomic<bool>* stop = stops[i].get();
      pumps.emplace_back([this, i, stop] { hosts[i]->run_realtime(*stop); });
    }
  }

  /// Take one node down hard: its pump stops, its sockets close, peers see
  /// dead connections. The in-process stand-in for SIGKILLing a daemon.
  void kill_node(std::uint32_t i) {
    if (stops[i]->exchange(true)) return;
    if (pumps[i].joinable()) pumps[i].join();
    transports[i]->stop();
  }

  void shutdown() {
    if (stopped) return;
    stopped = true;
    for (auto& s : stops) s->store(true);
    for (auto& t : pumps) {
      if (t.joinable()) t.join();
    }
    for (auto& t : transports) t->stop();  // idempotent for killed nodes
  }

  ~Cluster() { shutdown(); }

  api::QuorumClient client(std::vector<std::unique_ptr<RemoteNode>>& stubs) {
    const std::uint64_t cluster = NodeHost::cluster_id_of(cfg);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      TcpRpcChannel::Config ch;
      ch.host = "127.0.0.1";
      ch.port = transports[i]->listen_port();
      ch.client_id = cfg.n;
      ch.cluster = cluster;
      stubs.push_back(std::make_unique<RemoteNode>(
          std::make_unique<TcpRpcChannel>(ch), i, 3000ms));
    }
    return api::make_quorum_client(stubs, pki, cfg.f, core::Fidelity::kFull,
                                   api::WritePolicy::kAll);
  }

  std::vector<const core::SetchainServer*> servers() const {
    std::vector<const core::SetchainServer*> out;
    for (const auto& h : hosts) out.push_back(&h->server());
    return out;
  }
};

void run_tcp_conformance(runner::Algorithm algo) {
  Cluster cl(algo);
  cl.start();

  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto elements = make_workload(cl.cfg, 24, cl.pki);

  std::vector<core::ElementId> accepted;
  for (const auto& e : elements) {
    const auto r = client.add(e);
    EXPECT_TRUE(r.ok) << "add refused everywhere for " << e.id;
    if (r.ok) accepted.push_back(e.id);
  }
  ASSERT_EQ(accepted.size(), elements.size());

  // Client-side convergence: every element in the f+1-agreed view, then
  // every node's proof store holds f+1 proofs for every agreed epoch (the
  // signal that the proof traffic behind P8 has fully drained).
  const auto deadline = std::chrono::steady_clock::now() + 60s;
  const auto wait_for = [&](const std::function<bool()>& pred) {
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(100ms);
    }
    return pred();
  };

  ASSERT_TRUE(wait_for([&] {
    const auto view = client.get();
    for (const auto id : accepted) {
      if (!view.the_set.contains(id)) return false;
    }
    return view.epoch > 0;
  })) << "quorum view never covered the workload";

  ASSERT_TRUE(wait_for([&] {
    const auto view = client.get();
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to every node";

  // Quorum commit check over live TCP.
  const auto verdict = client.verify(accepted.front());
  EXPECT_TRUE(verdict.committed);
  EXPECT_GE(verdict.valid_proofs, cl.cfg.f + 1);

  // Freeze the cluster, then white-box conformance vs the sim reference.
  cl.shutdown();
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, runner::algorithm_name(algo));
}

TEST(TcpCluster, HashchainConformanceEndToEnd) {
  run_tcp_conformance(runner::Algorithm::kHashchain);
}

TEST(TcpCluster, VanillaConformanceEndToEnd) {
  run_tcp_conformance(runner::Algorithm::kVanilla);
}

// The acceptance scenario on real sockets: a consensus cluster keeps
// committing after the round-0 proposer (node 1 = proposer_for(1,0)) is
// killed mid-workload — the run that would stall forever if one fixed node
// ordered every block.
TEST(TcpCluster, ConsensusSurvivesProposerKill) {
  Cluster cl(runner::Algorithm::kVanilla);
  cl.start();

  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto elements = make_workload(cl.cfg, 24, cl.pki);

  // First half of the workload with all four nodes up.
  std::vector<core::ElementId> accepted;
  for (std::size_t i = 0; i < 12; ++i) {
    const auto r = client.add(elements[i]);
    EXPECT_TRUE(r.ok) << "add refused everywhere for " << elements[i].id;
    if (r.ok) accepted.push_back(elements[i].id);
  }
  ASSERT_EQ(accepted.size(), 12u);

  const auto deadline = std::chrono::steady_clock::now() + 90s;
  const auto wait_for = [&](const std::function<bool()>& pred) {
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(100ms);
    }
    return pred();
  };
  ASSERT_TRUE(wait_for([&] {
    const auto view = client.get();
    for (const auto id : accepted) {
      if (!view.the_set.contains(id)) return false;
    }
    return view.epoch > 0;
  })) << "cluster never consolidated the pre-kill workload";

  // SIGKILL stand-in: node 1's pump stops and its sockets close. Every
  // height h with h % 4 == 1 now needs a round skip to commit.
  cl.kill_node(1);

  // Second half, minted AFTER the kill: adds go through (stub 1 just fails
  // fast, per-call deadline) and the survivors must commit all of them.
  for (std::size_t i = 12; i < elements.size(); ++i) {
    const auto r = client.add(elements[i]);
    EXPECT_TRUE(r.ok) << "add refused everywhere for " << elements[i].id;
    if (r.ok) accepted.push_back(elements[i].id);
  }
  ASSERT_EQ(accepted.size(), elements.size());

  ASSERT_TRUE(wait_for([&] {
    const auto view = client.get();
    for (const auto id : accepted) {
      if (!view.the_set.contains(id)) return false;
    }
    return true;
  })) << "survivors never consolidated past the killed proposer";

  // Proofs drain to every SURVIVOR; the quorum commit check still clears
  // f+1 because only one of n=4 nodes is gone.
  ASSERT_TRUE(wait_for([&] {
    const auto view = client.get();
    for (std::uint32_t i = 0; i < stubs.size(); ++i) {
      if (i == 1) continue;
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stubs[i]->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to the survivors";
  const auto verdict = client.verify(accepted.front());
  EXPECT_TRUE(verdict.committed);
  EXPECT_GE(verdict.valid_proofs, cl.cfg.f + 1);

  // Freeze the survivors and run white-box conformance against the
  // fault-free reference: the committed set must be exactly the workload.
  cl.shutdown();
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  std::vector<const core::SetchainServer*> survivors;
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    if (i != 1) survivors.push_back(&cl.hosts[i]->server());
  }
  assert_cluster_matches_reference(survivors, accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "vanilla/consensus-kill");
}

// The Byzantine scenario on real sockets and threads: node 1's TcpTransport
// is wrapped by the adversary. Judged on counters, not log text: every
// honest node masks node 1, the garbage-signature vote dies in batch
// verification, the impersonated vote dies at the identity gate — and a
// QuorumClient still commits every element.
TEST(TcpCluster, ByzantineNodeIsMaskedOverSockets) {
  Cluster cl(runner::Algorithm::kVanilla, byzantine_node(1));
  cl.start();

  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<core::ElementId> accepted;
  for (const auto& e : elements) {
    const auto r = client.add(e);
    EXPECT_TRUE(r.ok) << "add refused everywhere for " << e.id;
    if (r.ok) accepted.push_back(e.id);
  }
  ASSERT_EQ(accepted.size(), elements.size());

  const auto deadline = std::chrono::steady_clock::now() + 90s;
  const auto wait_for = [&](const std::function<bool()>& pred) {
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(100ms);
    }
    return pred();
  };
  ASSERT_TRUE(wait_for([&] {
    for (const auto id : accepted) {
      if (!client.verify(id).committed) return false;
    }
    return true;
  })) << "the quorum client never saw every element committed";

  // Counters are read after the pumps stop (they are pump-thread state).
  cl.shutdown();
  std::uint64_t sig_rejects = 0;
  std::uint64_t bad = 0;
  for (const std::uint32_t i : {0u, 2u, 3u}) {
    const ConsensusLedger& c = cl.hosts[i]->ledger();
    EXPECT_TRUE(c.masked(1)) << "honest node " << i << " never masked node 1";
    EXPECT_FALSE(c.masked(i)) << "honest node " << i << " masked itself";
    sig_rejects += c.vote_sig_rejects();
    bad += cl.hosts[i]->bad_frames();
  }
  EXPECT_GT(sig_rejects, 0u) << "the garbage-signature forgery was never rejected";
  EXPECT_GT(bad, 0u) << "the impersonated vote passed the identity gate";
}

// Reconnect-with-backoff: a client channel outlives a node... covered at the
// transport level instead: a stranger speaking garbage is cut off without
// disturbing the cluster.
TEST(TcpCluster, GarbageStreamIsRejected) {
  Cluster cl(runner::Algorithm::kVanilla);
  cl.start();

  // Raw socket, no hello, straight garbage: the node must drop the stream
  // (decode error) and keep serving real clients.
  {
    TcpRpcChannel::Config ch;
    ch.host = "127.0.0.1";
    ch.port = cl.transports[0]->listen_port();
    ch.client_id = cl.cfg.n;
    ch.cluster = 0xBAD;  // wrong cluster id: hello refused, stream killed
    TcpRpcChannel bad(ch);
    EXPECT_FALSE(bad.call(wire::MsgType::kEpochRequest,
                          wire::encode_epoch_request({1}), 500ms)
                     .has_value());
  }

  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  const auto elements = make_workload(cl.cfg, 4, cl.pki);
  for (const auto& e : elements) {
    EXPECT_TRUE(client.add(e).ok);
  }
  cl.shutdown();
  EXPECT_GT(cl.transports[0]->counters().decode_errors, 0u);
}

}  // namespace
}  // namespace setchain::net
