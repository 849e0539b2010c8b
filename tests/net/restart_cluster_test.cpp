// Durable restart of a live 4-node TCP cluster: every node runs with a data
// directory, gets killed hard (pump stopped, sockets closed, host object
// DESTROYED — all in-memory state gone), and is rebooted from disk through
// NodeHost::recover(). The rolling test restarts each node in turn while the
// others keep serving; the whole-quorum test kills all four at once — the
// case no amount of peer catch-up can pass, only durable storage can.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>

#include "api/quorum_client.hpp"
#include "net/committed_chain.hpp"
#include "net/loopback.hpp"
#include "net/remote_node.hpp"
#include "net/tcp.hpp"
#include "net_fixture.hpp"
#include "storage/storage.hpp"

namespace setchain::net {
namespace {

using namespace setchain::net::testing;
using namespace std::chrono_literals;

struct DurableCluster {
  static NodeHostConfig make_config(runner::Algorithm algo,
                                    std::uint64_t snapshot_epochs) {
    NodeHostConfig cfg;
    cfg.n = 4;
    cfg.f = 1;
    cfg.algorithm = algo;
    cfg.seed = 42;
    cfg.collector_limit = 6;
    cfg.collector_timeout = sim::from_millis(100);
    cfg.block_interval = sim::from_millis(80);
    cfg.sync_interval = sim::from_millis(200);
    cfg.snapshot_epochs = snapshot_epochs;
    cfg.timeout_propose = sim::from_millis(800);
    cfg.retry_interval = sim::from_millis(200);
    return cfg;
  }

  NodeHostConfig cfg;
  std::string root;  ///< temp data root; node i persists in root/node<i>
  std::vector<std::string> peer_addrs;
  std::vector<std::uint16_t> ports;
  std::vector<std::unique_ptr<storage::Storage>> stores;
  std::vector<std::unique_ptr<sim::Simulation>> sims;
  std::vector<std::unique_ptr<TcpTransport>> transports;
  std::vector<std::unique_ptr<NodeHost>> hosts;
  std::vector<std::thread> pumps;
  std::vector<std::unique_ptr<std::atomic<bool>>> stops;
  /// Ledger height right after recover(), BEFORE the pump starts — the only
  /// race-free read of a live node's height the test thread gets.
  std::vector<std::uint64_t> recovered_height;
  /// Read at the same point: the server's applied height and, on a
  /// Hashchain node, the batch fetches it started. Recovery applies every
  /// replayed block before returning and finds every logged batch locally.
  std::vector<std::uint64_t> recovered_applied;
  std::vector<std::uint64_t> recovered_fetches;
  /// Hashchain batch fetches a node had started when it was killed.
  std::vector<std::uint64_t> fetches_at_kill;
  bool stopped = false;
  crypto::Pki pki;

  DurableCluster(runner::Algorithm algo, std::uint64_t snapshot_epochs)
      : cfg(make_config(algo, snapshot_epochs)), pki(cfg.seed) {
    for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
      pki.register_process(p);
    }
    char tmpl[] = "/tmp/setchain_restart_XXXXXX";
    root = ::mkdtemp(tmpl);

    stores.resize(cfg.n);
    sims.resize(cfg.n);
    transports.resize(cfg.n);
    hosts.resize(cfg.n);
    pumps.resize(cfg.n);
    recovered_height.resize(cfg.n, 0);
    recovered_applied.resize(cfg.n, 0);
    recovered_fetches.resize(cfg.n, 0);
    fetches_at_kill.resize(cfg.n, 0);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      stops.push_back(std::make_unique<std::atomic<bool>>(false));
    }

    // First boot binds ephemeral ports in id order; restarts re-bind the
    // SAME port (SO_REUSEADDR), so peers and clients redial successfully.
    const std::uint64_t cluster = NodeHost::cluster_id_of(cfg);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      TcpConfig tc;
      tc.self = i;
      tc.n = cfg.n;
      tc.cluster = cluster;
      tc.listen_port = 0;
      tc.peers = peer_addrs;  // ids 0..i-1: exactly the dial targets
      tc.peers.resize(cfg.n);
      transports[i] = std::make_unique<TcpTransport>(tc);
      ports.push_back(transports[i]->listen_port());
      peer_addrs.push_back("127.0.0.1:" + std::to_string(ports[i]));
    }
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      open_storage(i);
      make_host(i);
      run_node(i);
    }
  }

  void open_storage(std::uint32_t i) {
    storage::StorageConfig sc;
    sc.dir = root + "/node" + std::to_string(i);
    // In-process "SIGKILL" never loses the page cache, so kOff keeps the
    // suite fast without weakening what the test proves (state survives the
    // death of every in-memory object, not a power cut).
    sc.fsync = storage::FsyncMode::kOff;
    std::string err;
    stores[i] = storage::Storage::open(sc, &err);
    ASSERT_NE(stores[i], nullptr) << err;
  }

  void make_host(std::uint32_t i) {
    NodeHostConfig c = cfg;
    c.id = i;
    sims[i] = std::make_unique<sim::Simulation>();
    hosts[i] = std::make_unique<NodeHost>(c, *sims[i], *transports[i],
                                          stores[i].get());
    std::string err;
    ASSERT_TRUE(hosts[i]->recover(&err)) << "node " << i << ": " << err;
    recovered_height[i] = hosts[i]->ledger().height();
    recovered_applied[i] = hosts[i]->server().applied_height();
    recovered_fetches[i] = fetches_started(i);
  }

  std::uint64_t fetches_started(std::uint32_t i) const {
    const auto* h = dynamic_cast<const core::HashchainServer*>(&hosts[i]->server());
    return h != nullptr ? h->fetches_started() : 0;
  }

  void run_node(std::uint32_t i) {
    hosts[i]->start();
    transports[i]->start();
    stops[i]->store(false);
    std::atomic<bool>* stop = stops[i].get();
    pumps[i] = std::thread([this, i, stop] { hosts[i]->run_realtime(*stop); });
  }

  /// Hard kill: pump stopped, sockets closed, and — unlike the plain
  /// tcp_cluster_test kill — the host, ledger, server, simulation and
  /// storage objects are all destroyed. Nothing survives but the data dir.
  /// Returns the ledger height at death (read after the pump joined, so
  /// it is race-free).
  std::uint64_t kill_node(std::uint32_t i) {
    if (!stops[i]->exchange(true) && pumps[i].joinable()) pumps[i].join();
    const std::uint64_t h = hosts[i]->ledger().height();
    fetches_at_kill[i] = fetches_started(i);
    transports[i]->stop();
    hosts[i].reset();
    transports[i].reset();
    sims[i].reset();
    stores[i].reset();
    return h;
  }

  /// Reboot a killed node from its data directory, on its original port.
  void restart_node(std::uint32_t i) {
    TcpConfig tc;
    tc.self = i;
    tc.n = cfg.n;
    tc.cluster = NodeHost::cluster_id_of(cfg);
    tc.listen_host = "127.0.0.1";
    tc.listen_port = ports[i];
    tc.peers = peer_addrs;
    transports[i] = std::make_unique<TcpTransport>(tc);
    open_storage(i);
    make_host(i);
    if (::testing::Test::HasFatalFailure()) return;
    run_node(i);
  }

  void shutdown() {
    if (stopped) return;
    stopped = true;
    for (auto& s : stops) s->store(true);
    for (auto& t : pumps) {
      if (t.joinable()) t.join();
    }
    for (auto& t : transports) {
      if (t != nullptr) t->stop();
    }
  }

  ~DurableCluster() {
    shutdown();
    if (!root.empty()) {
      const std::string cmd = "rm -rf '" + root + "'";
      (void)std::system(cmd.c_str());
    }
  }

  api::QuorumClient client(std::vector<std::unique_ptr<RemoteNode>>& stubs) {
    const std::uint64_t cluster = NodeHost::cluster_id_of(cfg);
    for (std::uint32_t i = 0; i < cfg.n; ++i) {
      TcpRpcChannel::Config ch;
      ch.host = "127.0.0.1";
      ch.port = ports[i];
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

bool wait_until(const std::function<bool()>& pred,
                std::chrono::seconds budget = 60s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(100ms);
  }
  return pred();
}

void add_all(api::QuorumClient& client, const std::vector<core::Element>& elements,
             std::size_t begin, std::size_t end,
             std::vector<core::ElementId>& accepted) {
  for (std::size_t i = begin; i < end; ++i) {
    const auto r = client.add(elements[i]);
    EXPECT_TRUE(r.ok) << "add refused everywhere for " << elements[i].id;
    if (r.ok) accepted.push_back(elements[i].id);
  }
}

bool view_covers(api::QuorumClient& client,
                 const std::vector<core::ElementId>& accepted) {
  const auto view = client.get();
  for (const auto id : accepted) {
    if (!view.the_set.contains(id)) return false;
  }
  return view.epoch > 0;
}

// Each node of a live cluster is killed (object graph destroyed) and
// rebooted from its data directory in turn, mid-workload, every height's
// proposer included. The cluster must end fully converged with the consolidated set
// of a never-crashed reference run.
TEST(RestartCluster, RollingRestartEveryNode) {
  DurableCluster cl(runner::Algorithm::kHashchain, /*snapshot_epochs=*/2);
  if (::testing::Test::HasFatalFailure()) return;

  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<core::ElementId> accepted;

  for (std::uint32_t round = 0; round < cl.cfg.n; ++round) {
    // A fresh client per phase: the previous one may hold channels into a
    // node that has since been rebooted (they would heal, but fresh stubs
    // make each phase's adds deterministic).
    std::vector<std::unique_ptr<RemoteNode>> stubs;
    api::QuorumClient client = cl.client(stubs);
    add_all(client, elements, round * 6, (round + 1) * 6, accepted);
    ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
        << "round " << round << " never converged";
    // Commit this phase's epoch proofs before killing: a node dying with
    // its own proof tx in flight loses it for good (its retransmission
    // state is volatile), and successive rounds could push one epoch
    // below the f+1 the final drain check demands.
    ASSERT_TRUE(wait_until([&] {
      const auto view = client.get();
      for (auto& stub : stubs) {
        for (std::uint64_t e = 1; e <= view.epoch; ++e) {
          if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
        }
      }
      return true;
    })) << "round " << round << " proofs never drained";

    const std::uint64_t h_pre = cl.kill_node(round);
    cl.restart_node(round);
    if (::testing::Test::HasFatalFailure()) return;
    // The reboot resumed from disk, not from height 0, and recovered
    // exactly what the dead process had applied.
    EXPECT_GT(cl.recovered_height[round], 0u) << "node " << round;
    EXPECT_EQ(cl.recovered_height[round], h_pre) << "node " << round;
    EXPECT_EQ(cl.recovered_applied[round], cl.recovered_height[round])
        << "node " << round;
  }

  // Tail of the workload with everyone alive, then full-drain convergence:
  // quorum view covers everything and every node serves f+1 proofs for
  // every agreed epoch.
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  ASSERT_EQ(accepted.size(), elements.size());
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "cluster never converged after the last reboot";
  ASSERT_TRUE(wait_until([&] {
    const auto view = client.get();
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to every node";

  const auto verdict = client.verify(accepted.front());
  EXPECT_TRUE(verdict.committed);
  EXPECT_GE(verdict.valid_proofs, cl.cfg.f + 1);

  cl.shutdown();
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "hashchain/rolling-restart");
}

// The whole quorum dies at once — every host object destroyed — and reboots
// from disk. Without durable storage the first workload half would be gone
// (no surviving peer to sync from); with it, the rebooted cluster must
// still serve the old elements, accept new ones, and match the
// never-crashed reference. Also pins down tail-only replay: with a
// 1-epoch snapshot cadence, recovery must replay strictly fewer WAL blocks
// than the chain height.
TEST(RestartCluster, WholeQuorumRestart) {
  DurableCluster cl(runner::Algorithm::kHashchain, /*snapshot_epochs=*/1);
  if (::testing::Test::HasFatalFailure()) return;

  const auto elements = make_workload(cl.cfg, 24, cl.pki);
  std::vector<core::ElementId> accepted;

  {
    std::vector<std::unique_ptr<RemoteNode>> stubs;
    api::QuorumClient client = cl.client(stubs);
    add_all(client, elements, 0, 12, accepted);
    ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
        << "pre-kill workload never converged";
    // Drain epoch proofs to the ledger BEFORE the kill. A whole-quorum
    // simultaneous crash is outside the paper's ≤f fault model: every
    // node's in-flight proof tx (and its retransmission state) dies at
    // once, so an epoch caught mid-publish could stay below f+1 proofs
    // forever. Committed proofs are in the WAL and survive.
    ASSERT_TRUE(wait_until([&] {
      const auto view = client.get();
      for (auto& stub : stubs) {
        for (std::uint64_t e = 1; e <= view.epoch; ++e) {
          if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
        }
      }
      return true;
    })) << "pre-kill epoch proofs never drained to every node";
  }
  // Every node must have compacted at least once before the kill, so the
  // recovery-counter assertions below measure snapshot + tail replay and
  // not a full-log replay that happens to pass. Polled via the filesystem
  // (list_snapshots is a pure directory scan) — reading the live Storage
  // counters from the test thread would race with the pump.
  ASSERT_TRUE(wait_until([&] {
    for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
      const auto snaps =
          storage::list_snapshots(cl.root + "/node" + std::to_string(i));
      if (snaps.empty()) return false;
    }
    return true;
  })) << "snapshot cadence never fired on every node";

  std::vector<std::uint64_t> h_pre(cl.cfg.n);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) h_pre[i] = cl.kill_node(i);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    cl.restart_node(i);
    if (::testing::Test::HasFatalFailure()) return;
  }

  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    const storage::RecoveryStats* r = cl.hosts[i]->recovery();
    ASSERT_NE(r, nullptr);
    EXPECT_TRUE(r->snapshot_loaded) << "node " << i;
    EXPECT_GT(r->snapshot_height, 0u) << "node " << i;
    // Tail-only replay: the snapshot covered a prefix, the WAL only the gap.
    EXPECT_LT(r->wal_blocks_replayed, h_pre[i]) << "node " << i;
    EXPECT_EQ(r->snapshot_height + r->wal_blocks_replayed,
              cl.recovered_height[i])
        << "node " << i;
    EXPECT_EQ(cl.recovered_height[i], h_pre[i]) << "node " << i;
    // Every replayed block was applied inside recover(). A node killed
    // before it fetched some batch may start that fetch here; the next
    // case pins that batches the WAL holds are never fetched.
    EXPECT_EQ(cl.recovered_applied[i], cl.recovered_height[i]) << "node " << i;
  }

  // The rebooted cluster still holds the pre-kill workload (nothing but the
  // data dirs survived) and accepts the second half.
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "rebooted cluster lost the pre-kill workload";
  add_all(client, elements, 12, 24, accepted);
  ASSERT_EQ(accepted.size(), elements.size());
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "rebooted cluster never consolidated the post-restart workload";
  ASSERT_TRUE(wait_until([&] {
    const auto view = client.get();
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to every node";

  const auto verdict = client.verify(accepted.front());
  EXPECT_TRUE(verdict.committed);
  EXPECT_GE(verdict.valid_proofs, cl.cfg.f + 1);

  cl.shutdown();
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "hashchain/whole-quorum-restart");
}

// Recovery restores every WAL batch record before it replays a block. A
// Hashchain node logs a fetched batch after the block that announced it, so
// a replay in WAL order would miss that batch and fetch it again. Here the
// pre-kill drain waits for all n proofs of every epoch at every node (every
// proof batch fetched everywhere) and no snapshot cuts the WAL, so each WAL
// holds every batch its blocks announce: recover() must apply every block
// and start no fetch.
TEST(RestartCluster, WholeQuorumRestartFindsLoggedBatchesInTheWal) {
  DurableCluster cl(runner::Algorithm::kHashchain, /*snapshot_epochs=*/0);
  if (::testing::Test::HasFatalFailure()) return;

  const auto elements = make_workload(cl.cfg, 12, cl.pki);
  std::vector<core::ElementId> accepted;
  {
    std::vector<std::unique_ptr<RemoteNode>> stubs;
    api::QuorumClient client = cl.client(stubs);
    add_all(client, elements, 0, elements.size(), accepted);
    ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
        << "pre-kill workload never converged";
    ASSERT_TRUE(wait_until([&] {
      const auto view = client.get();
      for (auto& stub : stubs) {
        for (std::uint64_t e = 1; e <= view.epoch; ++e) {
          if (stub->proofs_for_epoch(e).size() < cl.cfg.n) return false;
        }
      }
      return true;
    })) << "pre-kill epoch proofs never reached all n nodes";
  }

  std::vector<std::uint64_t> h_pre(cl.cfg.n);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) h_pre[i] = cl.kill_node(i);
  // Some node fetched a batch announced by a block it had committed, so its
  // WAL holds that batch record after the block.
  EXPECT_GT(*std::max_element(cl.fetches_at_kill.begin(), cl.fetches_at_kill.end()), 0u)
      << "no node fetched a batch before the kill";
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    cl.restart_node(i);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(cl.recovered_height[i], h_pre[i]) << "node " << i;
    EXPECT_EQ(cl.recovered_applied[i], cl.recovered_height[i]) << "node " << i;
    EXPECT_EQ(cl.recovered_fetches[i], 0u) << "node " << i;
  }

  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "rebooted cluster lost the pre-kill workload";
}

// WholeQuorumRestart for Vanilla, whose element bytes ride in the proposals
// themselves: the ledger archives committed certified blocks; a
// whole-quorum restart must resume from the recovered height and keep
// committing (round state is volatile by design — only committed blocks
// persist).
TEST(RestartCluster, VanillaWholeQuorumRestart) {
  DurableCluster cl(runner::Algorithm::kVanilla, /*snapshot_epochs=*/1);
  if (::testing::Test::HasFatalFailure()) return;

  const auto elements = make_workload(cl.cfg, 16, cl.pki);
  std::vector<core::ElementId> accepted;
  {
    std::vector<std::unique_ptr<RemoteNode>> stubs;
    api::QuorumClient client = cl.client(stubs);
    add_all(client, elements, 0, 8, accepted);
    ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
        << "pre-kill workload never converged";
    // Same rationale as WholeQuorumRestart: commit every epoch's proofs
    // before the all-node kill so none are lost beyond the f bound.
    ASSERT_TRUE(wait_until([&] {
      const auto view = client.get();
      for (auto& stub : stubs) {
        for (std::uint64_t e = 1; e <= view.epoch; ++e) {
          if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
        }
      }
      return true;
    })) << "pre-kill epoch proofs never drained to every node";
  }

  std::vector<std::uint64_t> h_pre(cl.cfg.n);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) h_pre[i] = cl.kill_node(i);
  for (std::uint32_t i = 0; i < cl.cfg.n; ++i) {
    cl.restart_node(i);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(cl.recovered_height[i], h_pre[i]) << "node " << i;
    EXPECT_GT(cl.recovered_height[i], 0u) << "node " << i;
  }

  std::vector<std::unique_ptr<RemoteNode>> stubs;
  api::QuorumClient client = cl.client(stubs);
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }))
      << "rebooted consensus cluster lost the pre-kill workload";
  add_all(client, elements, 8, 16, accepted);
  ASSERT_EQ(accepted.size(), elements.size());
  ASSERT_TRUE(wait_until([&] { return view_covers(client, accepted); }, 90s))
      << "rebooted consensus cluster never committed new work";
  ASSERT_TRUE(wait_until([&] {
    const auto view = client.get();
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cl.cfg.f + 1) return false;
      }
    }
    return true;
  })) << "epoch proofs never drained to every node";

  cl.shutdown();
  const ReferenceRun reference = run_reference(cl.cfg, elements);
  std::unordered_set<core::ElementId> created(accepted.begin(), accepted.end());
  assert_cluster_matches_reference(cl.servers(), accepted, created,
                                   cl.hosts[0]->params(), cl.hosts[0]->pki(),
                                   reference, "vanilla/whole-quorum-restart");
}

// A data dir whose snapshot body this node cannot own is refused, never
// reinterpreted: one written by the retired sequencer mode (mode byte 0),
// one whose ledger-state blob is version 1 (the sequencer's layout), and
// one written for another algorithm. recover() fails with its diagnostic
// and nothing is restored.
TEST(RestartCluster, RecoverRefusesForeignSnapshotBodies) {
  const NodeHostConfig cfg =
      DurableCluster::make_config(runner::Algorithm::kVanilla, /*snapshot_epochs=*/0);
  const std::uint8_t vanilla = static_cast<std::uint8_t>(runner::Algorithm::kVanilla);
  const std::uint8_t hashchain = static_cast<std::uint8_t>(runner::Algorithm::kHashchain);
  // A well-formed ledger-state blob at height 5 with no committed txs.
  const auto ledger_blob = [](std::uint8_t version) {
    codec::Writer w;
    w.u8(version).varint(5).varint(3).varint(0).varint(0);
    if (version == 2) w.varint(0).varint(0).varint(0);
    return w.take();
  };
  const auto body = [](std::uint8_t algorithm, std::uint8_t mode,
                       const codec::Bytes& ledger_state) {
    codec::Writer w;
    w.u8(1).u8(algorithm).u8(mode).lp_bytes(ledger_state).lp_bytes(codec::Bytes{});
    return w.take();
  };
  const std::string mismatch = "snapshot body: algorithm/ledger-mode mismatch with config";
  const struct {
    const char* label;
    codec::Bytes body;
    std::string error;
  } cases[] = {
      {"sequencer mode byte", body(vanilla, 0, ledger_blob(1)), mismatch},
      {"version-1 ledger state", body(vanilla, 1, ledger_blob(1)),
       "snapshot body: ledger state did not restore"},
      {"other algorithm", body(hashchain, 1, ledger_blob(2)), mismatch},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.label);
    char tmpl[] = "/tmp/setchain_refuse_XXXXXX";
    const std::string dir = ::mkdtemp(tmpl);
    storage::StorageConfig sc;
    sc.dir = dir;
    sc.fsync = storage::FsyncMode::kOff;
    std::string err;
    {
      auto store = storage::Storage::open(sc, &err);
      ASSERT_NE(store, nullptr) << err;
      ASSERT_TRUE(store->write_snapshot(5, c.body));
    }
    auto store = storage::Storage::open(sc, &err);
    ASSERT_NE(store, nullptr) << err;
    sim::Simulation sim;
    LoopbackHub hub(sim, cfg.n);
    NodeHost host(cfg, sim, hub.transport(0), store.get());
    err.clear();
    EXPECT_FALSE(host.recover(&err));
    EXPECT_EQ(err, c.error);
    EXPECT_EQ(host.ledger().height(), 0u);
    EXPECT_EQ(host.server().applied_height(), 0u);
    EXPECT_EQ(host.server().epoch(), 0u);
    const std::string cmd = "rm -rf '" + dir + "'";
    (void)std::system(cmd.c_str());
  }
}

// Byte-level pins of the two durable ledger formats on a deterministic
// loopback cluster whose nodes WAL-log every commit.
//
//  * Ledger-state blob (snapshot body section, docs/STORAGE_FORMAT.md):
//      u8 version (2), varint height, varint local submission ordinal,
//      varint committed tx count, varint key count, then one lp_bytes
//      32-byte content key per committed tx, then varint equivocations,
//      varint masked count + ids, varint evidence count + records — all
//      zero in an honest run.
//  * WAL block records: the certified block (signed kProposal ‖ round ‖
//    precommit quorum, docs/WIRE_FORMAT.md). The records re-encode to
//    themselves and, in height order, carry exactly the node's committed
//    transactions.

/// The txs of one durable block payload, a certified block. Empty when it
/// does not parse.
std::vector<ledger::Transaction> payload_txs(codec::ByteView payload) {
  const auto cert = wire::parse_certified_block(payload);
  if (!cert) return {};
  auto prop = wire::parse_proposal(cert->proposal);
  return prop ? std::move(prop->block.txs) : std::vector<ledger::Transaction>{};
}

TEST(LedgerFormatPin, StateBlobAndWalBlockRecordsMatchTheDocumentedLayout) {
  const NodeHostConfig cfg =
      DurableCluster::make_config(runner::Algorithm::kVanilla, /*snapshot_epochs=*/0);
  char tmpl[] = "/tmp/setchain_pin_XXXXXX";
  const std::string root = ::mkdtemp(tmpl);
  const auto node_dir = [&root](std::uint32_t i) {
    return root + "/node" + std::to_string(i);
  };

  sim::Simulation sim;
  LoopbackHub hub(sim, cfg.n);
  std::vector<std::unique_ptr<storage::Storage>> stores;
  std::vector<std::unique_ptr<NodeHost>> hosts;
  // Per node: committed tx data in commit order, and their content keys.
  std::vector<std::vector<codec::Bytes>> committed_data(cfg.n);
  std::vector<std::unordered_set<std::string>> committed_keys(cfg.n);
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    storage::StorageConfig sc;
    sc.dir = node_dir(i);
    sc.fsync = storage::FsyncMode::kOff;
    std::string err;
    stores.push_back(storage::Storage::open(sc, &err));
    ASSERT_NE(stores.back(), nullptr) << err;
    NodeHostConfig c = cfg;
    c.id = i;
    hosts.push_back(
        std::make_unique<NodeHost>(c, sim, hub.transport(i), stores.back().get()));
    ASSERT_TRUE(hosts.back()->recover(&err)) << err;
    hosts.back()->start();
    // A live ledger keeps no tx table: read the committed txs off the
    // payloads the commit hook sees, and keep WAL-logging them the way the
    // host's own hook does.
    hosts.back()->ledger().set_commit_hook(
        [&, i, store = stores.back().get()](std::uint64_t height, codec::ByteView raw) {
          store->append_block(height, raw);
          for (const ledger::Transaction& tx : payload_txs(raw)) {
            if (committed_keys[i].insert(tx_dedup_key(tx)).second) {
              committed_data[i].push_back(tx.data);
            }
          }
        });
  }

  crypto::Pki pki(cfg.seed);
  for (crypto::ProcessId p = 0; p < cfg.n + cfg.client_slots; ++p) {
    pki.register_process(p);
  }
  std::vector<std::unique_ptr<RemoteNode>> stubs;
  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    stubs.push_back(
        std::make_unique<RemoteNode>(std::make_unique<LoopbackRpcChannel>(hub, i), i));
  }
  api::QuorumClient client = api::make_quorum_client(
      stubs, pki, cfg.f, core::Fidelity::kFull, api::WritePolicy::kAll);
  std::vector<core::ElementId> accepted;
  for (const auto& e : make_workload(cfg, 8, pki)) {
    if (client.add(e).ok) accepted.push_back(e.id);
  }
  ASSERT_FALSE(accepted.empty());
  // Run until every node holds the same non-empty chain with every epoch
  // f+1-proved on it, then let the cluster go quiet.
  const sim::Time deadline = sim.now() + sim::from_seconds(120);
  const auto settled = [&] {
    const auto view = client.get();
    if (view.epoch == 0) return false;
    for (auto& stub : stubs) {
      for (std::uint64_t e = 1; e <= view.epoch; ++e) {
        if (stub->proofs_for_epoch(e).size() < cfg.f + 1) return false;
      }
    }
    for (const auto& h : hosts) {
      if (h->ledger().height() != hosts[0]->ledger().height()) return false;
    }
    return true;
  };
  while (sim.now() < deadline && !settled()) {
    sim.run_until(sim.now() + sim::from_millis(250));
  }
  ASSERT_TRUE(settled()) << "cluster never settled";
  sim.run_until(sim.now() + sim::from_seconds(2));
  ASSERT_TRUE(settled());

  for (std::uint32_t i = 0; i < cfg.n; ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const ConsensusLedger& ledger = hosts[i]->ledger();
    const std::uint64_t chain_height = ledger.height();
    ASSERT_GT(chain_height, 0u);
    const std::vector<codec::Bytes>& committed = committed_data[i];

    // Ledger-state blob.
    codec::Writer w;
    ledger.serialize_state(w);
    codec::Reader r{codec::ByteView(w.buffer())};
    EXPECT_EQ(r.u8(), std::optional<std::uint8_t>(2));
    EXPECT_EQ(r.varint(), std::optional<std::uint64_t>(chain_height));
    const auto ordinal = r.varint();
    ASSERT_TRUE(ordinal.has_value());
    EXPECT_GT(*ordinal, 0u);  // every node publishes its epoch proofs
    EXPECT_EQ(r.varint(), std::optional<std::uint64_t>(committed.size()));
    const auto key_count = r.varint();
    ASSERT_EQ(key_count, std::optional<std::uint64_t>(committed.size()));
    std::unordered_set<std::string> expected_keys = committed_keys[i];
    for (std::uint64_t k = 0; k < *key_count; ++k) {
      const auto key = r.lp_bytes();
      ASSERT_TRUE(key.has_value());
      ASSERT_EQ(key->size(), 32u);
      EXPECT_EQ(expected_keys.erase(std::string(key->begin(), key->end())), 1u);
    }
    EXPECT_EQ(r.varint(), std::optional<std::uint64_t>(0));  // equivocations
    EXPECT_EQ(r.varint(), std::optional<std::uint64_t>(0));  // masked ids
    EXPECT_EQ(r.varint(), std::optional<std::uint64_t>(0));  // evidence records
    EXPECT_TRUE(r.done()) << r.remaining() << " trailing bytes";

    // WAL block records, read back from disk after the node is torn down.
    std::size_t next_tx = 0;
    const auto check_txs = [&](const std::vector<ledger::Transaction>& txs) {
      for (const auto& tx : txs) {
        ASSERT_LT(next_tx, committed.size());
        EXPECT_EQ(tx.data, committed[next_tx++]);
      }
    };
    hosts[i].reset();
    stores[i].reset();
    storage::StorageConfig sc;
    sc.dir = node_dir(i);
    std::string err;
    auto store = storage::Storage::open(sc, &err);
    ASSERT_NE(store, nullptr) << err;
    std::uint64_t next_height = 1;
    ASSERT_TRUE(store->replay([&](storage::WalRecordKind kind, std::uint64_t height,
                                  codec::ByteView payload) {
      if (kind != storage::WalRecordKind::kBlock) return;
      EXPECT_EQ(height, next_height++);
      const auto cert = wire::parse_certified_block(payload);
      ASSERT_TRUE(cert.has_value());
      EXPECT_GE(cert->votes.size(), 2 * cfg.f + 1);
      EXPECT_EQ(wire::encode_certified_block(cert->proposal, cert->round, cert->votes),
                codec::Bytes(payload.begin(), payload.end()));
      const auto prop = wire::parse_proposal(cert->proposal);
      ASSERT_TRUE(prop.has_value());
      ASSERT_EQ(prop->block.height, height);
      const codec::ByteView block =
          codec::ByteView(cert->proposal).first(prop->block_bytes_len);
      EXPECT_EQ(wire::encode_signed_proposal(block, prop->sig), cert->proposal);
      std::vector<const ledger::Transaction*> txs;
      for (const auto& tx : prop->block.txs) txs.push_back(&tx);
      EXPECT_EQ(wire::encode_block(height, prop->block.proposer, txs),
                codec::Bytes(block.begin(), block.end()));
      check_txs(prop->block.txs);
    }));
    EXPECT_EQ(next_height, chain_height + 1);
    EXPECT_EQ(next_tx, committed.size());
  }
  const std::string cmd = "rm -rf '" + root + "'";
  (void)std::system(cmd.c_str());
}

}  // namespace
}  // namespace setchain::net
